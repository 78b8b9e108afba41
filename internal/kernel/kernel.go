// Package kernel implements the simulated mini-kernel: a syscall layer,
// fault handling, file/pipe/socket/process subsystems, tracing clones, and
// deliberately retrofitted vulnerabilities — all written in KX64 IR,
// compiled through the kR^X pipeline, and executed on the emulator. It is
// the substrate the paper's evaluation (Tables 1–2) and security analysis
// (§7.3) run against.
package kernel

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/inject"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/kas"
	"repro/internal/link"
	"repro/internal/mem"
	"repro/internal/obs"
)

// Syscall numbers.
const (
	SysNull = iota
	SysGetpid
	SysOpen
	SysClose
	SysRead
	SysWrite
	SysSelect
	SysFstat
	SysMmap
	SysMunmap
	SysFork
	SysExecve
	SysExit
	SysSigaction
	SysKill
	SysPipeRead
	SysPipeWrite
	SysUnixRead
	SysUnixWrite
	SysTCPRead
	SysTCPWrite
	SysUDPRead
	SysUDPWrite
	SysFtracePeek // legitimate code read via the uninstrumented clone (§6)
	SysLeak       // retrofitted arbitrary-read vulnerability (§7.3)
	SysPlant      // retrofitted pointer-corruption vulnerability
	SysTrigger    // dereference the (possibly corrupted) dev_ops pointer
	SysStackSmash // retrofitted kernel stack overflow
	SysGetdents   // directory listing (read-heavy copy loop)
	SysUname      // copy the utsname string to user space
	SysYield      // scheduler touch (task-state reads)
	SysBrk        // program-break bump
	SysTriggerJmp // JOP-style dispatch through dev_ops[1] (jmp *mem)
	NumSyscalls
)

// User-space fixed addresses (the simulated process image).
const (
	UserCode     uint64 = 0x0000000000401000
	UserBuf      uint64 = 0x0000000000600000 // 64 pages of user data
	UserBufPages        = 64
	UserStack    uint64 = 0x00007f0000000000 // 16 pages
	UserStackPgs        = 16

	// userSyscallOff is the offset of the syscall stub in the user page;
	// userFaultOff is the offset of the faulting-load stub; userCopyOff is
	// the offset of the user-mode rep-movs copy stub (uninstrumented user
	// code — used by the mmap-I/O bandwidth benchmark, whose work happens
	// entirely in user space).
	userSyscallOff = 0
	userFaultOff   = 64
	userCopyOff    = 128

	// FaultSkip is the byte length of the user faulting instruction that
	// the fault handler skips over on resume.
	FaultSkip = 10
)

// KernelStackPages is the size of the (single) kernel stack.
const KernelStackPages = 8

// PhysMemBytes is the simulated machine's physical memory.
const PhysMemBytes = 64 << 20

// Kernel is a booted simulated kernel.
type Kernel struct {
	Cfg   core.Config
	Build *core.BuildResult
	Img   *link.Image
	Space *kas.Space
	CPU   *cpu.CPU

	// KernelStackBase is the physmap address of the kernel stack's lowest
	// page (its contents are attacker-readable data — §5.2.2).
	KernelStackBase uint64
	// Keys holds the boot-time xkey values (host-side ground truth for
	// tests; emulated code can only reach them via the %rip-relative
	// loads in prologues/epilogues).
	Keys map[string]uint64

	// Inj is the armed fault injector when Cfg.FaultPlan was set at boot
	// (nil otherwise). Harnesses that manage their own per-iteration
	// injectors leave Cfg.FaultPlan nil and attach directly: the CPU has
	// one ticker slot, so a second injector cannot be armed beside it.
	Inj *inject.Injector

	// Trace, when non-nil, receives syscall enter/exit and
	// snapshot/restore events (and, because Boot attaches it for trap
	// delivery too, every exception the CPU delivers). Set it with
	// WithTracer or assign before issuing syscalls.
	Trace *obs.Tracer

	// snapSeq numbers this kernel's snapshots; Restore refuses any snapshot
	// that is not the most recent one (see StaleSnapshotError).
	snapSeq uint64
}

// BootOption customizes Boot. The zero set of options compiles the shared
// kernel corpus uncached — exactly what the original Boot(cfg) did.
type BootOption func(*bootOptions)

type bootOptions struct {
	cached bool
	prog   *ir.Program
	image  *core.BuildResult
	probes []cpu.ExecProbe
	tracer *obs.Tracer
}

// WithCache boots through the process-wide build cache: the first boot of
// a configuration compiles the corpus, every later boot of the same
// configuration (per Config.BuildKey — runtime knobs like WatchdogBudget
// and FaultPlan do not fragment the cache) reuses the compiled image.
// Each cached image is booted once, into a golden kernel that never runs;
// every caller gets a copy-on-write fork of it (see bootGolden), which
// executes bit-identically to a fresh boot. Safe for concurrent use:
// multi-worker fuzzing campaigns and parallel benchmark sweeps boot their
// kernels through here. Incompatible with WithProgram (the cache is keyed
// to the shared corpus).
func WithCache() BootOption {
	return func(o *bootOptions) { o.cached = true }
}

// WithProgram boots a caller-supplied corpus instead of the shared one.
func WithProgram(prog *ir.Program) BootOption {
	return func(o *bootOptions) { o.prog = prog }
}

// WithImage installs an already-built image into a freshly constructed
// machine, skipping compilation. The result may be shared: everything it
// holds is only read.
func WithImage(res *core.BuildResult) BootOption {
	return func(o *bootOptions) { o.image = res }
}

// WithProbes installs execution probes on the booted CPU (in order), before
// any instruction runs.
func WithProbes(ps ...cpu.ExecProbe) BootOption {
	return func(o *bootOptions) { o.probes = append(o.probes, ps...) }
}

// WithTracer wires an event tracer into the kernel: syscall enter/exit and
// snapshot/restore events are emitted by the kernel itself, and the tracer
// is attached to the CPU for trap-delivery events.
func WithTracer(t *obs.Tracer) BootOption {
	return func(o *bootOptions) { o.tracer = t }
}

// Boot builds a kernel under cfg, installs it into a fresh machine,
// performs the kR^X boot-time steps (xkey replenishment, physmap synonym
// unmapping), and sets up a user process ready to issue syscalls. Options
// select where the image comes from (WithCache, WithProgram, WithImage —
// default: an uncached compile of the shared corpus) and what observers
// ride along (WithProbes, WithTracer). Under WithCache the machine is a
// copy-on-write fork of the image's golden kernel rather than a fresh
// construction; emulated code cannot tell the two apart.
func Boot(cfg core.Config, opts ...BootOption) (*Kernel, error) {
	var o bootOptions
	for _, opt := range opts {
		opt(&o)
	}
	res := o.image
	switch {
	case res != nil:
		// Pre-built image wins; a redundant WithCache/WithProgram is a
		// caller bug worth surfacing.
		if o.cached || o.prog != nil {
			return nil, fmt.Errorf("kernel: WithImage is exclusive with WithCache/WithProgram")
		}
	case o.cached:
		if o.prog != nil {
			return nil, fmt.Errorf("kernel: WithCache builds the shared corpus; it cannot cache a caller-supplied program")
		}
		prog, err := sharedCorpus()
		if err != nil {
			return nil, fmt.Errorf("kernel: corpus: %w", err)
		}
		res, err = buildCache.Build(prog, corpusID, cfg)
		if err != nil {
			return nil, err
		}
	default:
		prog := o.prog
		if prog == nil {
			var err error
			prog, err = BuildCorpus()
			if err != nil {
				return nil, fmt.Errorf("kernel: corpus: %w", err)
			}
		}
		var err error
		res, err = core.Build(prog, cfg)
		if err != nil {
			return nil, err
		}
	}
	var k *Kernel
	var err error
	if o.cached {
		k, err = bootGolden(res, cfg)
	} else {
		k, err = bootImage(res, cfg)
	}
	if err != nil {
		return nil, err
	}
	for _, p := range o.probes {
		k.CPU.AddProbe(p)
	}
	if o.tracer != nil {
		k.Trace = o.tracer
		o.tracer.Attach(k.CPU)
	}
	return k, nil
}

// The shared corpus, build cache and golden kernels behind Boot(cfg,
// WithCache()). The corpus program is built once and never mutated
// afterwards (core.Build clones before instrumenting), so every cached
// build compiles the same input. goldens holds the golden kernel booted
// from each of buildCache's images; it is replaced whenever buildCache is,
// so no golden outlives the cache entry it booted.
var (
	corpusOnce sync.Once
	corpusProg *ir.Program
	corpusErr  error

	buildCache = core.NewImageCache(nil)

	goldenMu sync.Mutex
	goldens  = make(map[goldenKey]*golden)
)

// corpusID names the shared corpus in the build-cache key. Bump it if the
// corpus generator changes shape within one process lifetime (it cannot —
// BuildCorpus is deterministic — so a constant is the honest identity).
const corpusID = "kernel-corpus"

// sharedCorpus returns the memoized kernel corpus program. Callers must not
// mutate it.
func sharedCorpus() (*ir.Program, error) {
	corpusOnce.Do(func() {
		corpusProg, corpusErr = BuildCorpus()
	})
	return corpusProg, corpusErr
}

// BuildCache exposes the process-wide build cache (Stats() feeds the
// store.* gauges and the sweep tests).
func BuildCache() *core.ImageCache { return buildCache }

// SetBuildCache replaces the process-wide build cache — how a CLI wires a
// persistent -cache-dir store under every Boot(cfg, WithCache()) — and
// returns the previous cache so tests can restore it. The golden kernels
// booted from the old cache's images are dropped with it. Boot-time wiring
// only: swapping while boots are in flight races with them.
func SetBuildCache(c *core.ImageCache) *core.ImageCache {
	old := buildCache
	buildCache = c
	goldenMu.Lock()
	goldens = make(map[goldenKey]*golden)
	goldenMu.Unlock()
	return old
}

// bootImage installs an already-built image into a fresh machine and
// performs the boot-time steps. res may be shared (cached): everything it
// holds is only read — section bytes are poked into the new space, xkeys
// are replenished in the space, never in the image.
func bootImage(res *core.BuildResult, cfg core.Config) (*Kernel, error) {
	freshBoots.Add(1)
	sp, err := kas.Install(res.Image.Layout, kas.NewPhysPool(PhysMemBytes))
	if err != nil {
		return nil, err
	}
	if cfg.XOM == core.XOMEPT {
		// Hypervisor baseline: nested paging gives true execute-only
		// semantics to the X-only text mapping.
		sp.AS.EPT = true
	}
	if err := res.Image.Install(sp); err != nil {
		return nil, err
	}
	k := &Kernel{Cfg: cfg, Build: res, Img: res.Image, Space: sp, Keys: make(map[string]uint64)}

	// Replenish xkeys with random values (boot-time step (d) of §6). The
	// keys live in the code region; boot writes them through the
	// privileged installer before synonyms are closed. Assignment follows
	// sorted symbol order — map iteration would hand different key values
	// to different slots on every process run, breaking seeded replay.
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x6b52585f)) // "kRX_"
	keySyms := make([]string, 0, len(res.Image.KeyAddrs))
	for sym := range res.Image.KeyAddrs {
		keySyms = append(keySyms, sym)
	}
	sort.Strings(keySyms)
	for _, sym := range keySyms {
		addr := res.Image.KeyAddrs[sym]
		v := rng.Uint64() | 1
		k.Keys[sym] = v
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		if err := sp.AS.Poke(addr, b[:]); err != nil {
			return nil, err
		}
	}

	// kR^X boot step: unmap physmap synonyms of the code region.
	if _, err := sp.UnmapCodeSynonyms(); err != nil {
		return nil, err
	}

	if cfg.XOM == core.XOMHideM {
		// HideM baseline (§2): desynchronize the split TLBs so data reads
		// of executable pages observe zero-filled shadow frames while
		// fetches keep executing the real code. Non-executable code-region
		// sections (.krxkeys) keep their data view — HideM shadows code
		// pages only.
		for _, rg := range res.Image.Layout.Regions {
			if !rg.Code || rg.Perm&mem.PermX == 0 || rg.Size == 0 {
				continue
			}
			if err := sp.AS.ShadowData(rg.Start, mem.PagesFor(rg.Size), nil); err != nil {
				return nil, err
			}
		}
	}

	// Kernel stack.
	k.KernelStackBase, err = sp.AllocMapped(KernelStackPages)
	if err != nil {
		return nil, err
	}

	// User process: code page, data buffer, stack.
	if _, err := sp.AS.Map(UserCode&^uint64(mem.PageMask), 1, mem.PermRX); err != nil {
		return nil, err
	}
	if _, err := sp.AS.Map(UserBuf, UserBufPages, mem.PermRW); err != nil {
		return nil, err
	}
	if _, err := sp.AS.Map(UserStack, UserStackPgs, mem.PermRW); err != nil {
		return nil, err
	}
	if err := installUserStubs(sp); err != nil {
		return nil, err
	}

	// CPU wiring (the MSR/boot-parameter setup).
	c := cpu.New(sp.AS)
	c.SyscallEntry = res.Image.Symbols["syscall_entry"]
	c.FaultEntry = res.Image.Symbols["fault_entry"]
	c.KernelStackTop = k.KernelStackBase + KernelStackPages*mem.PageSize - 64
	c.SMEP = true
	if cfg.XOM == core.XOMMPX {
		c.MPXKernel = true
		c.KernelBnd0 = cpu.Bound{LB: 0, UB: res.Image.Symbols["_krx_edata"]}
	}
	k.CPU = c

	k.armInjector()
	return k, nil
}

// armInjector arms a fault injector over Cfg.FaultPlan, if one is set.
func (k *Kernel) armInjector() {
	if k.Cfg.FaultPlan != nil {
		k.Inj = inject.New(*k.Cfg.FaultPlan)
		k.Inj.Attach(k.CPU, k.Space.AS, k.FaultTargets())
	}
}

// FaultTargets returns the injection surface of this kernel: every mapped
// data region (kernel image data sections, the kernel stack, the user
// buffer) plus the xkey slots. Ordering is deterministic — the injector's
// replay guarantee depends on it.
func (k *Kernel) FaultTargets() inject.Targets {
	var t inject.Targets
	for _, rg := range k.Img.Layout.Regions {
		if rg.Code || rg.Size == 0 || rg.Perm&mem.PermW == 0 {
			continue
		}
		t.Data = append(t.Data, inject.Range{Start: rg.Start, End: rg.Start + rg.Size})
	}
	t.Data = append(t.Data,
		inject.Range{Start: k.KernelStackBase, End: k.KernelStackBase + KernelStackPages*mem.PageSize},
		inject.Range{Start: UserBuf, End: UserBuf + UserBufPages*mem.PageSize},
	)
	for _, addr := range k.Img.KeyAddrs {
		t.KeyAddrs = append(t.KeyAddrs, addr)
	}
	sort.Slice(t.KeyAddrs, func(i, j int) bool { return t.KeyAddrs[i] < t.KeyAddrs[j] })
	return t
}

// Snapshot captures the complete machine state: CPU registers and MSRs, the
// physical-pool watermark, and a copy-on-write checkpoint of the address
// space. Restore rewinds to it, so a crashed or fault-injected run rolls
// back instead of poisoning subsequent iterations.
type Snapshot struct {
	cpu      cpu.State
	poolMark int
	owner    *Kernel
	seq      uint64
}

// StaleSnapshotError reports a Restore with a snapshot that is not the
// kernel's most recent one — superseded by a later Snapshot, or taken from
// a different kernel entirely (a fork's snapshots do not transfer). The
// address-space checkpoint that backs a snapshot is replaced wholesale by
// the next Checkpoint, so restoring a stale snapshot would silently rewind
// to the *newer* checkpoint's state under the old snapshot's CPU registers
// and pool watermark — a torn machine state. Restore refuses instead.
type StaleSnapshotError struct {
	// Seq is the stale snapshot's sequence number; Current the kernel's
	// live one. Both are 0 when the snapshot belongs to another kernel.
	Seq     uint64
	Current uint64
	// Foreign is set when the snapshot was taken from a different kernel.
	Foreign bool
}

func (e *StaleSnapshotError) Error() string {
	if e.Foreign {
		return "kernel: restore of a snapshot taken from a different kernel"
	}
	return fmt.Sprintf("kernel: restore of a stale snapshot (seq %d, superseded by %d)", e.Seq, e.Current)
}

// Snapshot checkpoints the kernel. Only the most recent snapshot is
// restorable: taking a new one supersedes the old, and Restore with a
// superseded snapshot fails with a StaleSnapshotError.
func (k *Kernel) Snapshot() *Snapshot {
	k.Space.AS.Checkpoint()
	if k.Trace != nil {
		k.Trace.Emit(obs.EvSnapshot, "snapshot", 0, 0)
	}
	k.snapSeq++
	return &Snapshot{cpu: k.CPU.SaveState(), poolMark: k.Space.Pool.Mark(), owner: k, seq: k.snapSeq}
}

// Restore rewinds the kernel to a snapshot. It may be called repeatedly on
// the same snapshot (the fuzzing loop restores once per iteration), but only
// the kernel's most recent snapshot is restorable.
func (k *Kernel) Restore(s *Snapshot) error {
	if s.owner != k {
		return &StaleSnapshotError{Foreign: true}
	}
	if s.seq != k.snapSeq {
		return &StaleSnapshotError{Seq: s.seq, Current: k.snapSeq}
	}
	if err := k.Space.AS.Rollback(); err != nil {
		return err
	}
	k.CPU.RestoreState(s.cpu)
	k.Space.Pool.Reset(s.poolMark)
	if k.Trace != nil {
		// Emitted after the CPU state rewinds, so the timestamp is the
		// restored (deterministic) counter value, not the pre-rollback one
		// — the property that keeps per-iteration traces byte-identical
		// across worker counts.
		k.Trace.Emit(obs.EvRestore, "restore", 0, 0)
	}
	return nil
}

// installUserStubs writes the two user-mode stubs:
//
//	+0:  syscall ; jmp .       (the syscall trampoline)
//	+64: mov (%rbx), %rax ; jmp .   (the faulting load for #PF benches)
func installUserStubs(sp *kas.Space) error {
	var stub []byte
	var err error
	emit := func(ins ...isa.Instr) {
		for _, in := range ins {
			if err != nil {
				return
			}
			stub, err = in.Encode(stub)
		}
	}
	emit(isa.Syscall())
	emit(isa.Instr{Op: isa.JMP, Imm: -5}) // jmp self
	if err != nil {
		return err
	}
	if f := len(stub); f > userFaultOff {
		return fmt.Errorf("kernel: user stub overflow (%d)", f)
	}
	pad := make([]byte, userFaultOff-len(stub))
	for i := range pad {
		pad[i] = 0xCC
	}
	stub = append(stub, pad...)
	ld := isa.Load(isa.RAX, isa.Mem(isa.RBX, 0))
	if n := ld.Length(); n != FaultSkip {
		return fmt.Errorf("kernel: FaultSkip (%d) != load length (%d)", FaultSkip, n)
	}
	emit(ld)
	emit(isa.Instr{Op: isa.JMP, Imm: -5})
	if err != nil {
		return err
	}
	if len(stub) > userCopyOff {
		return fmt.Errorf("kernel: user stub overflow (%d)", len(stub))
	}
	pad = make([]byte, userCopyOff-len(stub))
	for i := range pad {
		pad[i] = 0xCC
	}
	stub = append(stub, pad...)
	// User copy stub: rep movsq, then a null syscall to hand control back.
	emit(isa.Movs(8, true))
	emit(isa.Syscall())
	emit(isa.Instr{Op: isa.JMP, Imm: -5})
	if err != nil {
		return err
	}
	return sp.AS.Poke(UserCode, stub)
}

// UserCopy runs the user-mode copy stub: rep movsq of quads quadwords from
// src to dst (both user addresses), followed by a null syscall. It models
// workloads whose data movement happens in (uninstrumented) user code.
func (k *Kernel) UserCopy(dst, src uint64, quads uint64) *SyscallResult {
	c := k.CPU
	c.Mode = cpu.User
	c.RIP = UserCode + userCopyOff
	c.SetReg(isa.RSP, UserStack+UserStackPgs*mem.PageSize-128)
	c.SetReg(isa.RDI, dst)
	c.SetReg(isa.RSI, src)
	c.SetReg(isa.RCX, quads)
	c.SetReg(isa.RAX, SysNull)
	c.StopOnSysret = true
	defer func() { c.StopOnSysret = false }()
	res := c.Run(k.WatchdogBudget())
	r := &SyscallResult{Ret: c.Reg(isa.RAX), Run: res, Failed: res.Reason != cpu.StopSysret}
	if res.Reason == cpu.StopLimit {
		r.Err = &cpu.BudgetError{Budget: k.WatchdogBudget(), RIP: c.RIP, Mode: c.Mode}
	}
	return r
}

// SyscallResult reports one syscall round trip.
type SyscallResult struct {
	Ret    uint64
	Run    *cpu.RunResult
	Failed bool  // the kernel trapped, halted, or overran instead of returning
	Err    error // structured failure detail: *cpu.BudgetError (watchdog) or a recovered harness panic
}

// DefaultWatchdogBudget is the per-syscall instruction budget when the
// configuration does not override it. The heaviest legitimate syscall in the
// corpus (fork's page-table copy under SFI-O0) stays well under it.
const DefaultWatchdogBudget = 4 << 20

// WatchdogBudget returns the effective per-syscall instruction budget.
func (k *Kernel) WatchdogBudget() uint64 {
	if k.Cfg.WatchdogBudget != 0 {
		return k.Cfg.WatchdogBudget
	}
	return DefaultWatchdogBudget
}

// Syscall executes one complete user->kernel->user round trip: the user
// stub issues the syscall instruction, the kernel entry dispatches through
// the syscall table, and the run stops right after sysret. Up to three
// arguments travel in %rdi/%rsi/%rdx, the syscall number in %rax.
//
// The boundary is hardened for adversarial workloads: the run is bounded by
// the watchdog budget (exhaustion is reported as a *cpu.BudgetError, never a
// hang or a silent truncation), and any panic escaping the emulator — a
// harness bug tickled by a corrupted machine — is recovered into the result
// instead of tearing down the whole process.
func (k *Kernel) Syscall(nr uint64, args ...uint64) (result *SyscallResult) {
	c := k.CPU
	defer func() {
		if p := recover(); p != nil {
			c.StopOnSysret = false
			result = &SyscallResult{
				Run:    &cpu.RunResult{Reason: cpu.StopTrap},
				Failed: true,
				Err:    fmt.Errorf("kernel: panic during syscall %d: %v", nr, p),
			}
		}
	}()
	c.Mode = cpu.User
	c.RIP = UserCode + userSyscallOff
	c.SetReg(isa.RSP, UserStack+UserStackPgs*mem.PageSize-128)
	c.SetReg(isa.RAX, nr)
	regs := []isa.Reg{isa.RDI, isa.RSI, isa.RDX}
	for i := range regs {
		var v uint64
		if i < len(args) {
			v = args[i]
		}
		c.SetReg(regs[i], v)
	}
	c.StopOnSysret = true
	defer func() { c.StopOnSysret = false }()
	if k.Trace != nil {
		var a0 uint64
		if len(args) > 0 {
			a0 = args[0]
		}
		k.Trace.Emit(obs.EvSyscallEnter, SyscallName(nr), a0, nr)
	}
	res := c.Run(k.WatchdogBudget())
	r := &SyscallResult{
		Ret:    c.Reg(isa.RAX),
		Run:    res,
		Failed: res.Reason != cpu.StopSysret,
	}
	if res.Reason == cpu.StopLimit {
		r.Err = &cpu.BudgetError{Budget: k.WatchdogBudget(), RIP: c.RIP, Mode: c.Mode}
	}
	if k.Trace != nil {
		ret := r.Ret
		if r.Failed {
			ret = uint64(res.Reason)
		}
		k.Trace.Emit(obs.EvSyscallExit, SyscallName(nr), ret, nr)
	}
	return r
}

// syscallNames renders syscall numbers for trace events and profiler
// reports, indexed by number.
var syscallNames = [NumSyscalls]string{
	SysNull: "sys_null", SysGetpid: "sys_getpid", SysOpen: "sys_open",
	SysClose: "sys_close", SysRead: "sys_read", SysWrite: "sys_write",
	SysSelect: "sys_select", SysFstat: "sys_fstat", SysMmap: "sys_mmap",
	SysMunmap: "sys_munmap", SysFork: "sys_fork", SysExecve: "sys_execve",
	SysExit: "sys_exit", SysSigaction: "sys_sigaction", SysKill: "sys_kill",
	SysPipeRead: "sys_pipe_read", SysPipeWrite: "sys_pipe_write",
	SysUnixRead: "sys_unix_read", SysUnixWrite: "sys_unix_write",
	SysTCPRead: "sys_tcp_read", SysTCPWrite: "sys_tcp_write",
	SysUDPRead: "sys_udp_read", SysUDPWrite: "sys_udp_write",
	SysFtracePeek: "sys_ftrace_peek", SysLeak: "sys_leak",
	SysPlant: "sys_plant", SysTrigger: "sys_trigger",
	SysStackSmash: "sys_stack_smash", SysGetdents: "sys_getdents",
	SysUname: "sys_uname", SysYield: "sys_yield", SysBrk: "sys_brk",
	SysTriggerJmp: "sys_trigger_jmp",
}

// SyscallName returns the canonical name of a syscall number
// ("sys_<nr>" for numbers outside the table).
func SyscallName(nr uint64) string {
	if nr < NumSyscalls {
		return syscallNames[nr]
	}
	return fmt.Sprintf("sys_%d", nr)
}

// TriggerFault executes the user faulting-load stub against addr, stopping
// after the kernel fault handler irets (the protection/page-fault
// benchmark round trip).
func (k *Kernel) TriggerFault(addr uint64) *cpu.RunResult {
	c := k.CPU
	c.Mode = cpu.User
	c.RIP = UserCode + userFaultOff
	c.SetReg(isa.RSP, UserStack+UserStackPgs*mem.PageSize-128)
	c.SetReg(isa.RBX, addr)
	c.StopOnIret = true
	defer func() { c.StopOnIret = false }()
	return c.Run(1 << 20)
}

// WriteUser copies bytes into the user buffer region (what a user program
// would have placed there before a syscall).
func (k *Kernel) WriteUser(off uint64, b []byte) error {
	if f := k.Space.AS.StoreBytes(UserBuf+off, b); f != nil {
		return f
	}
	return nil
}

// ReadUser reads back from the user buffer region.
func (k *Kernel) ReadUser(off uint64, n int) ([]byte, error) {
	b, f := k.Space.AS.LoadBytes(UserBuf+off, n)
	if f != nil {
		return nil, f
	}
	return b, nil
}

// Sym returns the address of a linked symbol.
func (k *Kernel) Sym(name string) uint64 { return k.Img.Symbols[name] }

// Violated reports whether a syscall result represents a stopped system due
// to a kR^X violation: the SFI path halts inside krx_handler, the MPX path
// dies on #BR, and the EPT path on a read #PF.
func (k *Kernel) Violated(r *SyscallResult) bool {
	if !r.Failed {
		return false
	}
	res := r.Run
	if res.Reason == cpu.StopHalt {
		h := k.Sym("krx_handler")
		// The halt must come from the handler body.
		return res.HaltRIP >= h && res.HaltRIP < h+64
	}
	if res.Reason == cpu.StopTrap && res.Trap != nil {
		return res.Trap.Kind == cpu.TrapBoundRange ||
			(res.Trap.Kind == cpu.TrapPageFault && res.Trap.Fault != nil &&
				res.Trap.Fault.Kind == mem.FaultNoRead)
	}
	return false
}
