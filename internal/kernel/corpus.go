package kernel

import (
	"encoding/binary"
	"fmt"

	"repro/internal/ir"
	"repro/internal/isa"
)

// Kernel object geometry.
const (
	numFDs        = 64
	fdEntrySize   = 32 // +0 inuse, +8 inode, +16 pos, +24 ready-flags
	numInodes     = 16
	inodeSize     = 64 // +0..31 name, +32 size, +40 cache offset, +48 mode
	numDentries   = 16
	dentrySize    = 40 // +0..31 name, +32 inode index
	taskSize      = 256
	numSigs       = 16
	sigEntrySize  = 16 // +0 handler, +8 flags
	ringSize      = 8192
	ringMask      = ringSize - 1
	pageCacheSize = 128 << 10
	numPTEs       = 512
	numVMAs       = 8
	vmaSize       = 32
	numAuditNodes = 8
)

// OpenFDs returns the descriptors in use as a bitmask: bit fd is set when
// fd_table[fd]'s in-use word (+0) is nonzero, the word sys_close tests, so
// sys_close(fd) succeeds exactly when the bit is set. It reads guest memory
// host-side, without running kernel code or allocating.
func (k *Kernel) OpenFDs() uint64 {
	base := k.Sym("fd_table")
	var open uint64
	for fd := uint64(0); fd < numFDs; fd++ {
		if inuse, _ := k.Space.AS.PeekUint64(base + fd*fdEntrySize); inuse != 0 {
			open |= 1 << fd
		}
	}
	return open
}

func le64(vals ...uint64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[i*8:], v)
	}
	return out
}

func paddedName(s string, n int) []byte {
	b := make([]byte, n)
	copy(b, s)
	return b
}

// BuildCorpus constructs the complete kernel program: entry stubs, fault
// path, syscalls, helpers, kR^X clones, the retrofitted vulnerabilities,
// data/bss objects, and the synthetic corpus functions that give the image
// a realistically shaped .text for diversification and gadget statistics.
func BuildCorpus() (*ir.Program, error) {
	p := &ir.Program{}

	// ---- data objects ----
	// File system: dentries name the inodes; inode 0 is a /dev/zero-like
	// stream at page_cache offset 0, inode 1 a regular test file.
	dentries := make([]byte, numDentries*dentrySize)
	inodes := make([]byte, numInodes*inodeSize)
	names := []string{"dev_zero", "testfile", "console", "urandom", "proc_stat", "tmp_a"}
	for i, n := range names {
		copy(dentries[i*dentrySize:], paddedName(n, 32))
		binary.LittleEndian.PutUint64(dentries[i*dentrySize+32:], uint64(i))
		copy(inodes[i*inodeSize:], paddedName(n, 32))
		binary.LittleEndian.PutUint64(inodes[i*inodeSize+32:], 64<<10)            // size
		binary.LittleEndian.PutUint64(inodes[i*inodeSize+40:], uint64(i)*(8<<10)) // cache offset
		binary.LittleEndian.PutUint64(inodes[i*inodeSize+48:], 0644)
	}
	vmas := make([]byte, numVMAs*vmaSize)
	for i := 0; i < numVMAs; i++ {
		binary.LittleEndian.PutUint64(vmas[i*vmaSize:], UserBuf+uint64(i)<<16)
		binary.LittleEndian.PutUint64(vmas[i*vmaSize+8:], UserBuf+uint64(i+1)<<16)
	}

	p.Data = []ir.DataSym{
		{Name: "sys_call_table", Bytes: make([]byte, NumSyscalls*8)},
		{Name: "cred", Bytes: le64(1000, 1000)}, // +0 uid, +8 gid
		{Name: "task_cur", Bytes: le64(1 /*state*/, 1 /*pid*/, 0, 0, uint64(UserCode), uint64(UserStack), 0, 0)},
		{Name: "pid_counter", Bytes: le64(1)},
		{Name: "fd_table", Bytes: make([]byte, numFDs*fdEntrySize)},
		{Name: "dentry_table", Bytes: dentries},
		{Name: "inode_table", Bytes: inodes},
		{Name: "sigactions", Bytes: make([]byte, numSigs*sigEntrySize)},
		{Name: "vma_table", Bytes: vmas},
		{Name: "fault_count", Bytes: le64(0)},
		{Name: "dev_ops", Bytes: make([]byte, 4*8)},
		{Name: "state_pipe", Bytes: le64(0, 0, 0, 0)}, // +0 head, +8 tail, +16 csum, +24 acks
		{Name: "state_unix", Bytes: le64(0, 0, 0, 0)},
		{Name: "state_tcp", Bytes: le64(0, 0, 0, 0)},
		{Name: "state_udp", Bytes: le64(0, 0, 0, 0)},
		{Name: "poll_bitmap", Bytes: le64(0)},
		{Name: "brk_ptr", Bytes: le64(uint64(UserBuf) + 4<<20)},
		{Name: "audit_chain", Bytes: make([]byte, numAuditNodes*16)}, // +0 flags, +8 next
	}
	masks := make([]uint64, 64)
	for i := range masks {
		masks[i] = 1 << uint(i)
	}
	p.Rodata = []ir.DataSym{
		{Name: "bit_masks", Bytes: le64(masks...)},
		{Name: "uname_str", Bytes: paddedName("KX64 krx 3.19.0-krx x86_64", 64)},
	}
	p.BSS = []ir.BSSSym{
		{Name: "page_cache", Size: pageCacheSize},
		{Name: "name_buf", Size: 64},
		{Name: "kbuf", Size: 256},
		{Name: "task_pool", Size: 4 * taskSize},
		{Name: "pgtable_arr", Size: numPTEs * 8},
		{Name: "pgtable_child", Size: numPTEs * 8},
		{Name: "exec_image", Size: 4096},
		{Name: "ring_pipe", Size: ringSize},
		{Name: "ring_unix", Size: ringSize},
		{Name: "ring_tcp", Size: ringSize},
		{Name: "ring_udp", Size: ringSize},
		{Name: "stat_scratch", Size: 64},
	}
	p.Relocs = []ir.DataReloc{
		{In: "dev_ops", Off: 0, Sym: "dev_default_op"},
		{In: "dev_ops", Off: 8, Sym: "dev_default_op"},
	}
	// Link the audit filter chain: node i points at node i+1; the last
	// next pointer stays nil.
	for i := 0; i < numAuditNodes-1; i++ {
		p.Relocs = append(p.Relocs, ir.DataReloc{
			In: "audit_chain", Off: uint64(i)*16 + 8,
			Sym: "audit_chain", Addend: uint64(i+1) * 16,
		})
	}

	// Syscall table relocations.
	sysFuncs := map[int]string{
		SysNull: "sys_null", SysGetpid: "sys_getpid",
		SysOpen: "sys_open", SysClose: "sys_close",
		SysRead: "sys_read", SysWrite: "sys_write",
		SysSelect: "sys_select", SysFstat: "sys_fstat",
		SysMmap: "sys_mmap", SysMunmap: "sys_munmap",
		SysFork: "sys_fork", SysExecve: "sys_execve", SysExit: "sys_exit",
		SysSigaction: "sys_sigaction", SysKill: "sys_kill",
		SysPipeRead: "sys_pipe_read", SysPipeWrite: "sys_pipe_write",
		SysUnixRead: "sys_unix_read", SysUnixWrite: "sys_unix_write",
		SysTCPRead: "sys_tcp_read", SysTCPWrite: "sys_tcp_write",
		SysUDPRead: "sys_udp_read", SysUDPWrite: "sys_udp_write",
		SysFtracePeek: "sys_ftrace_peek",
		SysLeak:       "sys_leak", SysPlant: "sys_plant", SysTrigger: "sys_trigger",
		SysStackSmash: "sys_stack_smash",
		SysGetdents:   "sys_getdents",
		SysUname:      "sys_uname",
		SysYield:      "sys_yield",
		SysBrk:        "sys_brk",
		SysTriggerJmp: "sys_trigger_jmp",
	}
	for nr, fn := range sysFuncs {
		p.Relocs = append(p.Relocs, ir.DataReloc{In: "sys_call_table", Off: uint64(nr) * 8, Sym: fn})
	}

	// ---- functions ----
	var fns []*ir.Function
	add := func(f *ir.Function, err error) error {
		if err != nil {
			return err
		}
		fns = append(fns, f)
		return nil
	}
	builders := []func() (*ir.Function, error){
		fnKrxHandler, fnSyscallEntry, fnFaultEntry, fnSyscallBookkeeping, fnDoProtFault,
		fnStrncpyFromUser, fnPathLookup, fnDentryCmp, fnCopyBytes, fnCopyQuads,
		fnCsumPartial, fnMemsetQuads, fnDoFault, fnDoSetUID, fnDevDefaultOp,
		fnMemcpyKrx, fnMemcmpKrx, fnBitmapCopyKrx, fnGetNextKrx,
		fnPeekNextKrx, fnGetNextInsnKrx, fnPeekNextInsnKrx,
		fnGetNextEventKrx, fnPeekNextEventKrx, fnStrnlenKrx,
		fnSysNull, fnSysGetpid, fnSysOpen, fnSysClose, fnSysRead, fnSysWrite,
		fnSysSelect, fnSysFstat, fnSysMmap, fnSysMunmap,
		fnSysFork, fnSysExecve, fnSysExit, fnSysSigaction, fnSysKill,
		fnSysFtracePeek, fnSysLeak, fnSysPlant, fnSysTrigger, fnSysStackSmash,
		fnSysGetdents, fnSysUname, fnSysYield, fnSysBrk, fnSysTriggerJmp,
	}
	for _, mk := range builders {
		if err := add(mk()); err != nil {
			return nil, err
		}
	}
	// Ring-buffer syscalls: one read/write pair per channel, with the
	// INET flavours paying for checksumming (so TCP/UDP latencies exceed
	// UNIX-socket ones, as in Table 1).
	for _, ch := range []struct {
		name  string
		csum  bool
		extra bool // TCP: ack bookkeeping reads
	}{
		{"pipe", false, false},
		{"unix", false, false},
		{"tcp", true, true},
		{"udp", true, false},
	} {
		if err := add(fnRingWrite(ch.name, ch.csum, ch.extra)); err != nil {
			return nil, err
		}
		if err := add(fnRingRead(ch.name, ch.extra)); err != nil {
			return nil, err
		}
	}
	synth, err := SynthCorpus(120, 1789)
	if err != nil {
		return nil, err
	}
	fns = append(fns, synth...)
	p.Funcs = fns
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("kernel corpus: %w", err)
	}
	return p, nil
}

// ---- stubs (NoInstrument + NoDiversify: these are the hand-written
// assembly parts of a kernel, which the RTL-level plugins cannot see — §6)

func fnKrxHandler() (*ir.Function, error) {
	f, err := ir.NewBuilder("krx_handler").
		I(isa.Hlt()).
		Func()
	if err != nil {
		return nil, err
	}
	f.NoInstrument, f.NoDiversify = true, true
	return f, nil
}

func fnSyscallEntry() (*ir.Function, error) {
	// %rcx holds the user return address and %r11 the user %rflags (the
	// SYSCALL convention); both are clobbered freely by kernel code — %r11
	// doubly so, being the kR^X scratch register — so the stub preserves
	// them across the dispatch, exactly like the Linux entry code.
	f, err := ir.NewBuilder("syscall_entry").
		I(
			isa.CmpRI(isa.RAX, NumSyscalls),
			isa.Jcc(isa.CondAE, "bad"),
			isa.Push(isa.RCX),
			isa.Push(isa.R11),
			// Context tracking / audit (instrumented C, like Linux's
			// syscall-entry work), with the argument registers preserved.
			isa.Push(isa.RDI),
			isa.Push(isa.RSI),
			isa.Push(isa.RDX),
			isa.Push(isa.RAX),
			isa.Call("syscall_bookkeeping"),
			isa.Pop(isa.RAX),
			isa.Pop(isa.RDX),
			isa.Pop(isa.RSI),
			isa.Pop(isa.RDI),
			isa.MovSym(isa.R10, "sys_call_table"),
			isa.CallMem(isa.MemIdx(isa.R10, isa.RAX, 8, 0)),
			isa.Pop(isa.R11),
			isa.Pop(isa.RCX),
			isa.Sysret(),
		).
		Label("bad").
		I(isa.MovRI(isa.RAX, -1), isa.Sysret()).
		Func()
	if err != nil {
		return nil, err
	}
	f.NoInstrument, f.NoDiversify = true, true
	return f, nil
}

func fnFaultEntry() (*ir.Function, error) {
	// Exception frame on entry: [rip][rsp][rflags], fault address in %r9
	// (the simulated CR2). Accesses to kernel addresses take the short
	// protection-fault path; ordinary page faults walk the VMAs and fill
	// page-table entries. Both handlers are instrumented C; the stub then
	// resumes the user past the faulting instruction.
	f, err := ir.NewBuilder("fault_entry").
		I(
			isa.MovRI(isa.R10, -0x800000000000), // upper canonical half
			isa.CmpRR(isa.R9, isa.R10),
			isa.Jcc(isa.CondB, "pf"),
			isa.Call("do_prot_fault"),
			isa.Jmp("resume"),
		).
		Label("pf").
		I(isa.Call("do_fault")).
		Label("resume").
		I(
			isa.Load(isa.R10, isa.Mem(isa.RSP, 0)),
			isa.AddRI(isa.R10, FaultSkip),
			isa.Store(isa.Mem(isa.RSP, 0), isa.R10),
			isa.Iret(),
		).
		Func()
	if err != nil {
		return nil, err
	}
	f.NoInstrument, f.NoDiversify = true, true
	return f, nil
}

// ---- helpers (instrumented, diversified) ----

// strncpy_from_user(%rdi=dst, %rsi=user src, %rdx=max) -> %rax=len.
func fnStrncpyFromUser() (*ir.Function, error) {
	return ir.NewBuilder("strncpy_from_user").
		I(isa.XorRR(isa.RAX, isa.RAX)).
		Label("loop").
		I(
			isa.CmpRR(isa.RAX, isa.RDX),
			isa.Jcc(isa.CondAE, "done"),
			isa.LoadSz(isa.R8, isa.Mem(isa.RSI, 0), 1),
			isa.StoreSz(isa.Mem(isa.RDI, 0), isa.R8, 1),
			isa.Inc(isa.RAX),
			isa.AddRI(isa.RSI, 1),
			isa.AddRI(isa.RDI, 1),
			isa.CmpRI(isa.R8, 0),
			isa.Jcc(isa.CondNE, "loop"),
		).
		Label("done").
		I(isa.Ret()).
		Func()
}

// dentry_cmp(%rdi=name, %rsi=dentry entry) -> %rax = 0 if the 32-byte
// names match. The quad-by-quad same-base loads are prime coalescing
// material.
func fnDentryCmp() (*ir.Function, error) {
	b := ir.NewBuilder("dentry_cmp")
	for q := int32(0); q < 4; q++ {
		b.I(
			isa.Load(isa.RCX, isa.Mem(isa.RSI, q*8)),
			isa.CmpRM(isa.RCX, isa.Mem(isa.RDI, q*8)),
			isa.Jcc(isa.CondNE, "ne"),
		)
	}
	return b.
		I(isa.XorRR(isa.RAX, isa.RAX), isa.Ret()).
		Label("ne").
		I(isa.MovRI(isa.RAX, 1), isa.Ret()).
		Func()
}

// path_lookup(%rdi=name in kernel memory) -> %rax=inode index or -1.
// Walks the dentry table, comparing names through dentry_cmp (the nested
// call gives the VFS path its realistic stack depth).
func fnPathLookup() (*ir.Function, error) {
	return ir.NewBuilder("path_lookup").
		I(isa.XorRR(isa.R9, isa.R9)).
		Label("outer").
		I(
			isa.CmpRI(isa.R9, numDentries),
			isa.Jcc(isa.CondAE, "notfound"),
			isa.MovSym(isa.RSI, "dentry_table"),
			isa.MovRR(isa.R10, isa.R9),
			isa.ImulRI(isa.R10, dentrySize),
			isa.AddRR(isa.RSI, isa.R10),
			isa.Push(isa.RDI),
			isa.Push(isa.R9),
			isa.Call("dentry_cmp"),
			isa.Pop(isa.R9),
			isa.Pop(isa.RDI),
			isa.TestRR(isa.RAX, isa.RAX),
			isa.Jcc(isa.CondE, "found"),
			isa.Inc(isa.R9),
			isa.Jmp("outer"),
		).
		Label("found").
		I(
			isa.MovSym(isa.R8, "dentry_table"),
			isa.MovRR(isa.R10, isa.R9),
			isa.ImulRI(isa.R10, dentrySize),
			isa.AddRR(isa.R8, isa.R10),
			isa.Load(isa.RAX, isa.Mem(isa.R8, 32)),
			isa.Ret(),
		).
		Label("notfound").
		I(isa.MovRI(isa.RAX, -1), isa.Ret()).
		Func()
}

// copy_bytes(%rdi=dst, %rsi=src, %rdx=n).
func fnCopyBytes() (*ir.Function, error) {
	return ir.NewBuilder("copy_bytes").
		I(isa.MovRR(isa.RCX, isa.RDX), isa.Movs(1, true), isa.Ret()).
		Func()
}

// copy_quads(%rdi=dst, %rsi=src, %rdx=quads).
func fnCopyQuads() (*ir.Function, error) {
	return ir.NewBuilder("copy_quads").
		I(isa.MovRR(isa.RCX, isa.RDX), isa.Movs(8, true), isa.Ret()).
		Func()
}

// csum_partial(%rdi=buf, %rsi=quads, quads a multiple of 8) -> %rax.
// Unrolled by eight same-base loads per iteration, the way the real
// (hand-optimized) csum_partial is: under O3 each iteration carries a
// single coalesced range check.
func fnCsumPartial() (*ir.Function, error) {
	b := ir.NewBuilder("csum_partial").
		I(isa.XorRR(isa.RAX, isa.RAX), isa.XorRR(isa.RCX, isa.RCX)).
		Label("loop").
		I(
			isa.CmpRR(isa.RCX, isa.RSI),
			isa.Jcc(isa.CondAE, "done"),
		)
	for q := int32(0); q < 8; q++ {
		b.I(isa.Instr{Op: isa.ADDrm, Dst: isa.RAX, M: isa.Mem(isa.RDI, q*8)})
	}
	return b.I(
		isa.AddRI(isa.RDI, 64),
		isa.AddRI(isa.RCX, 8),
		isa.Jmp("loop"),
	).
		Label("done").
		I(isa.Ret()).
		Func()
}

// memset_quads(%rdi=dst, %rsi=value, %rdx=quads).
func fnMemsetQuads() (*ir.Function, error) {
	return ir.NewBuilder("memset_quads").
		I(
			isa.MovRR(isa.RAX, isa.RSI),
			isa.MovRR(isa.RCX, isa.RDX),
			isa.Stos(8, true),
			isa.Ret(),
		).
		Func()
}

// do_fault: the C-level fault path — bumps the fault counter and scans the
// VMA list (reads).
func fnDoFault() (*ir.Function, error) {
	return ir.NewBuilder("do_fault").
		I(
			isa.MovSym(isa.R8, "fault_count"),
			isa.Load(isa.R9, isa.Mem(isa.R8, 0)),
			isa.Inc(isa.R9),
			isa.Store(isa.Mem(isa.R8, 0), isa.R9),
			isa.MovSym(isa.R8, "vma_table"),
			isa.XorRR(isa.R9, isa.R9),
		).
		Label("scan").
		I(
			isa.CmpRI(isa.R9, numVMAs),
			isa.Jcc(isa.CondAE, "out"),
			isa.MovRR(isa.R10, isa.R9),
			isa.ShlRI(isa.R10, 5),
			isa.Load(isa.RCX, isa.MemIdx(isa.R8, isa.R10, 1, 0)),
			isa.Load(isa.RCX, isa.MemIdx(isa.R8, isa.R10, 1, 8)),
			isa.Inc(isa.R9),
			isa.Jmp("scan"),
		).
		Label("out").
		I(
			// Fill the faulted page's PTE (the page-allocation side).
			isa.MovSym(isa.R8, "pgtable_arr"),
			isa.Load(isa.RCX, isa.Mem(isa.R8, 128)),
			isa.OrRI(isa.RCX, 0x7),
			isa.Store(isa.Mem(isa.R8, 128), isa.RCX),
			isa.Ret(),
		).
		Func()
}

// do_prot_fault: the short path for privilege-violating accesses — record
// the event and read the offender's sigaction (a SIGSEGV would follow).
func fnDoProtFault() (*ir.Function, error) {
	return ir.NewBuilder("do_prot_fault").
		I(
			isa.MovSym(isa.R8, "fault_count"),
			isa.Load(isa.R9, isa.Mem(isa.R8, 0)),
			isa.Inc(isa.R9),
			isa.Store(isa.Mem(isa.R8, 0), isa.R9),
			isa.MovSym(isa.R8, "sigactions"),
			isa.Load(isa.R9, isa.Mem(isa.R8, 11*16)), // SIGSEGV slot
			isa.Ret(),
		).
		Func()
}

// syscall_bookkeeping: the instrumented C-level work on every syscall
// entry — context tracking on the task struct plus an audit-filter chain
// walk. The pointer-chasing loop re-defines its base register every
// iteration, so its range checks cannot coalesce: this is the fixed
// instrumentation cost that dominates null-syscall latency (Table 1, first
// row).
func fnSyscallBookkeeping() (*ir.Function, error) {
	return ir.NewBuilder("syscall_bookkeeping").
		I(
			isa.MovSym(isa.R8, "task_cur"),
			isa.Load(isa.R9, isa.Mem(isa.R8, 0)),  // state
			isa.Load(isa.R9, isa.Mem(isa.R8, 24)), // flags (coalesces)
			isa.MovSym(isa.RBX, "audit_chain"),
		).
		Label("walk").
		I(
			isa.TestRR(isa.RBX, isa.RBX),
			isa.Jcc(isa.CondE, "done"),
			isa.Load(isa.RCX, isa.Mem(isa.RBX, 0)), // filter flags
			isa.Load(isa.RBX, isa.Mem(isa.RBX, 8)), // next node
			isa.Jmp("walk"),
		).
		Label("done").
		I(isa.Ret()).
		Func()
}

// do_set_uid(%rdi=uid): the privilege-escalation target (commit_creds-like).
func fnDoSetUID() (*ir.Function, error) {
	return ir.NewBuilder("do_set_uid").
		I(
			isa.MovSym(isa.R8, "cred"),
			isa.Store(isa.Mem(isa.R8, 0), isa.RDI),
			isa.Ret(),
		).
		Func()
}

func fnDevDefaultOp() (*ir.Function, error) {
	return ir.NewBuilder("dev_default_op").
		I(isa.MovRI(isa.RAX, 0x11), isa.Ret()).
		Func()
}

// ---- kR^X clones (§6): uninstrumented accessors for subsystems with
// legitimate code-region reads (ftrace, KProbes, module loader-linker).

func noInstr(f *ir.Function, err error) (*ir.Function, error) {
	if err != nil {
		return nil, err
	}
	f.NoInstrument = true
	f.AccessorClone = true
	return f, nil
}

func fnMemcpyKrx() (*ir.Function, error) {
	return noInstr(ir.NewBuilder("memcpy_krx").
		I(isa.MovRR(isa.RCX, isa.RDX), isa.Movs(1, true), isa.Ret()).
		Func())
}

func fnMemcmpKrx() (*ir.Function, error) {
	return noInstr(ir.NewBuilder("memcmp_krx").
		I(isa.MovRR(isa.RCX, isa.RDX), isa.Cmps(1, true), isa.MovRI(isa.RAX, 0), isa.Jcc(isa.CondE, "eq"), isa.MovRI(isa.RAX, 1)).
		Label("eq").
		I(isa.Ret()).
		Func())
}

func fnBitmapCopyKrx() (*ir.Function, error) {
	return noInstr(ir.NewBuilder("bitmap_copy_krx").
		I(isa.MovRR(isa.RCX, isa.RDX), isa.Movs(8, true), isa.Ret()).
		Func())
}

func fnGetNextKrx() (*ir.Function, error) {
	return noInstr(ir.NewBuilder("get_next_krx").
		I(isa.Load(isa.RAX, isa.Mem(isa.RDI, 0)), isa.Ret()).
		Func())
}

// The remaining get_next/peek_next-family clones (§6 clones ten functions
// in total: the accessor family plus memcpy, memcmp, and bitmap_copy).
// peek variants read without advancing; get variants return the element
// and the advanced cursor.

func fnPeekNextKrx() (*ir.Function, error) {
	return noInstr(ir.NewBuilder("peek_next_krx").
		I(isa.LoadSz(isa.RAX, isa.Mem(isa.RDI, 0), 1), isa.Ret()).
		Func())
}

func fnGetNextInsnKrx() (*ir.Function, error) {
	// Return the quad at the cursor and advance it by the decoded length
	// in %rsi (the caller's decoder supplies it).
	return noInstr(ir.NewBuilder("get_next_insn_krx").
		I(
			isa.Load(isa.RAX, isa.Mem(isa.RDI, 0)),
			isa.AddRR(isa.RDI, isa.RSI),
			isa.Ret(),
		).Func())
}

func fnPeekNextInsnKrx() (*ir.Function, error) {
	return noInstr(ir.NewBuilder("peek_next_insn_krx").
		I(isa.Load(isa.RAX, isa.Mem(isa.RDI, 0)), isa.Ret()).
		Func())
}

func fnGetNextEventKrx() (*ir.Function, error) {
	// Tracing ring cursor: load the event word, bump the cursor cell.
	return noInstr(ir.NewBuilder("get_next_event_krx").
		I(
			isa.Load(isa.RAX, isa.Mem(isa.RDI, 0)),
			isa.Load(isa.RCX, isa.Mem(isa.RSI, 0)),
			isa.AddRI(isa.RCX, 8),
			isa.Store(isa.Mem(isa.RSI, 0), isa.RCX),
			isa.Ret(),
		).Func())
}

func fnPeekNextEventKrx() (*ir.Function, error) {
	return noInstr(ir.NewBuilder("peek_next_event_krx").
		I(isa.Load(isa.RAX, isa.MemIdx(isa.RDI, isa.RSI, 8, 0)), isa.Ret()).
		Func())
}

func fnStrnlenKrx() (*ir.Function, error) {
	// strnlen over (possibly code) bytes: scan for NUL up to %rsi bytes.
	return noInstr(ir.NewBuilder("strnlen_krx").
		I(isa.XorRR(isa.RAX, isa.RAX)).
		Label("loop").
		I(
			isa.CmpRR(isa.RAX, isa.RSI),
			isa.Jcc(isa.CondAE, "done"),
			isa.LoadSz(isa.RCX, isa.MemIdx(isa.RDI, isa.RAX, 1, 0), 1),
			isa.CmpRI(isa.RCX, 0),
			isa.Jcc(isa.CondE, "done"),
			isa.Inc(isa.RAX),
			isa.Jmp("loop"),
		).
		Label("done").
		I(isa.Ret()).
		Func())
}
