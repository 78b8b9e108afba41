package fuzz

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/kernel"
	"repro/internal/mem"
)

// ArgKind types one syscall argument, so the generator produces values that
// exercise the handler's interesting paths (valid, boundary, and hostile)
// instead of uniform 64-bit noise — the syzkaller lesson: typed generation
// reaches depth random bits never do.
type ArgKind int

// Argument kinds.
const (
	ArgNone    ArgKind = iota
	ArgFD              // file-descriptor index
	ArgUserPtr         // pointer into the user buffer/stack
	ArgPathPtr         // pointer to a NUL-terminated path in user memory
	ArgCount           // byte/element count
	ArgKAddr           // kernel address (leak/peek targets)
	ArgSignal          // signal number
	ArgIndex           // small table index (plant slot, pte index)
	ArgValue           // arbitrary 64-bit payload (planted pointers)
	ArgPages           // page count (mmap/munmap)
)

// Call is one syscall invocation: number plus the three register arguments.
type Call struct {
	Nr   uint64
	Args [3]uint64
}

// Prog is a syscall sequence — the fuzzer's unit of execution, corpus
// storage, and minimization.
type Prog struct {
	Calls []Call
}

// Clone returns a deep copy.
func (p *Prog) Clone() *Prog {
	q := &Prog{Calls: make([]Call, len(p.Calls))}
	copy(q.Calls, p.Calls)
	return q
}

// key returns the program's calls as a string, byte-identical for equal
// programs: a map key for memoizing replays.
func (p *Prog) key() string {
	b := make([]byte, 0, len(p.Calls)*32)
	for _, c := range p.Calls {
		b = binary.LittleEndian.AppendUint64(b, c.Nr)
		for _, a := range c.Args {
			b = binary.LittleEndian.AppendUint64(b, a)
		}
	}
	return string(b)
}

// String renders the program as one line of pseudo-C, the reproducer format
// reports print.
func (p *Prog) String() string {
	var b strings.Builder
	for i, c := range p.Calls {
		if i > 0 {
			b.WriteString("; ")
		}
		name := "sys_?"
		var spec *SyscallSpec
		if int(c.Nr) < len(specs) {
			spec = &specs[c.Nr]
			name = spec.Name
		} else {
			name = fmt.Sprintf("sys_%d", c.Nr)
		}
		b.WriteString(name)
		b.WriteByte('(')
		n := 3
		if spec != nil {
			n = len(spec.Args)
		}
		for a := 0; a < n; a++ {
			if a > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%#x", c.Args[a])
		}
		b.WriteByte(')')
	}
	return b.String()
}

// SyscallSpec describes one syscall's fuzzing surface.
type SyscallSpec struct {
	Nr   uint64
	Name string
	Args []ArgKind
}

// specs covers the mini-kernel's full user-reachable surface, indexed by
// syscall number.
var specs = []SyscallSpec{
	kernel.SysNull:       {kernel.SysNull, "sys_null", nil},
	kernel.SysGetpid:     {kernel.SysGetpid, "sys_getpid", nil},
	kernel.SysOpen:       {kernel.SysOpen, "sys_open", []ArgKind{ArgPathPtr}},
	kernel.SysClose:      {kernel.SysClose, "sys_close", []ArgKind{ArgFD}},
	kernel.SysRead:       {kernel.SysRead, "sys_read", []ArgKind{ArgFD, ArgUserPtr, ArgCount}},
	kernel.SysWrite:      {kernel.SysWrite, "sys_write", []ArgKind{ArgFD, ArgUserPtr, ArgCount}},
	kernel.SysSelect:     {kernel.SysSelect, "sys_select", []ArgKind{ArgCount}},
	kernel.SysFstat:      {kernel.SysFstat, "sys_fstat", []ArgKind{ArgFD, ArgUserPtr}},
	kernel.SysMmap:       {kernel.SysMmap, "sys_mmap", []ArgKind{ArgPages}},
	kernel.SysMunmap:     {kernel.SysMunmap, "sys_munmap", []ArgKind{ArgIndex, ArgPages}},
	kernel.SysFork:       {kernel.SysFork, "sys_fork", nil},
	kernel.SysExecve:     {kernel.SysExecve, "sys_execve", []ArgKind{ArgPathPtr}},
	kernel.SysExit:       {kernel.SysExit, "sys_exit", []ArgKind{ArgValue}},
	kernel.SysSigaction:  {kernel.SysSigaction, "sys_sigaction", []ArgKind{ArgSignal, ArgValue}},
	kernel.SysKill:       {kernel.SysKill, "sys_kill", []ArgKind{ArgSignal}},
	kernel.SysPipeRead:   {kernel.SysPipeRead, "sys_pipe_read", []ArgKind{ArgUserPtr, ArgCount}},
	kernel.SysPipeWrite:  {kernel.SysPipeWrite, "sys_pipe_write", []ArgKind{ArgUserPtr, ArgCount}},
	kernel.SysUnixRead:   {kernel.SysUnixRead, "sys_unix_read", []ArgKind{ArgUserPtr, ArgCount}},
	kernel.SysUnixWrite:  {kernel.SysUnixWrite, "sys_unix_write", []ArgKind{ArgUserPtr, ArgCount}},
	kernel.SysTCPRead:    {kernel.SysTCPRead, "sys_tcp_read", []ArgKind{ArgUserPtr, ArgCount}},
	kernel.SysTCPWrite:   {kernel.SysTCPWrite, "sys_tcp_write", []ArgKind{ArgUserPtr, ArgCount}},
	kernel.SysUDPRead:    {kernel.SysUDPRead, "sys_udp_read", []ArgKind{ArgUserPtr, ArgCount}},
	kernel.SysUDPWrite:   {kernel.SysUDPWrite, "sys_udp_write", []ArgKind{ArgUserPtr, ArgCount}},
	kernel.SysFtracePeek: {kernel.SysFtracePeek, "sys_ftrace_peek", []ArgKind{ArgKAddr}},
	kernel.SysLeak:       {kernel.SysLeak, "sys_leak", []ArgKind{ArgKAddr}},
	kernel.SysPlant:      {kernel.SysPlant, "sys_plant", []ArgKind{ArgIndex, ArgValue}},
	kernel.SysTrigger:    {kernel.SysTrigger, "sys_trigger", []ArgKind{ArgValue}},
	kernel.SysStackSmash: {kernel.SysStackSmash, "sys_stack_smash", []ArgKind{ArgUserPtr, ArgCount}},
	kernel.SysGetdents:   {kernel.SysGetdents, "sys_getdents", []ArgKind{ArgUserPtr, ArgCount}},
	kernel.SysUname:      {kernel.SysUname, "sys_uname", []ArgKind{ArgUserPtr}},
	kernel.SysYield:      {kernel.SysYield, "sys_yield", nil},
	kernel.SysBrk:        {kernel.SysBrk, "sys_brk", []ArgKind{ArgValue}},
	kernel.SysTriggerJmp: {kernel.SysTriggerJmp, "sys_trigger_jmp", []ArgKind{ArgValue}},
}

// pathOffsets are user-buffer offsets pre-seeded with path strings by the
// fuzzer's setup (before the boot snapshot), so ArgPathPtr can point at
// valid names, garbage, and an unterminated run.
var pathOffsets = []uint64{0x1000, 0x1040, 0x1080, 0x10c0}

// SetupUserMemory writes the path-string seeds into the user buffer. Call
// once after boot, before taking the execution snapshot.
func SetupUserMemory(k *kernel.Kernel) error {
	paths := [][]byte{
		append([]byte("testfile"), 0),
		append([]byte("dev_zero"), 0),
		append([]byte("no_such_file_with_a_very_long_name_"), 0),
		[]byte(strings.Repeat("A", 64)), // deliberately unterminated
	}
	for i, p := range paths {
		if err := k.WriteUser(pathOffsets[i], p); err != nil {
			return err
		}
	}
	return nil
}

// gen draws one argument value of the given kind. Roughly half the draws
// come from the kind's "interesting" set (valid values, boundaries, hostile
// addresses) and the rest are randomized within the kind's shape.
func (g *generator) gen(kind ArgKind) uint64 {
	r := g.rng
	switch kind {
	case ArgFD:
		return pick(r, 0, 1, 2, 3, 62, 63, 64, 65, 1<<32, ^uint64(0))
	case ArgUserPtr:
		base := kernel.UserBuf
		switch r.Intn(6) {
		case 0:
			return base + uint64(r.Intn(64))*8
		case 1: // last mapped byte region — boundary crossing
			return base + kernel.UserBufPages*mem.PageSize - uint64(1+r.Intn(16))
		case 2: // just past the mapping
			return base + kernel.UserBufPages*mem.PageSize + uint64(r.Intn(64))
		case 3: // user stack
			return kernel.UserStack + uint64(r.Intn(kernel.UserStackPgs))*mem.PageSize
		case 4: // null-ish
			return uint64(r.Intn(2))
		default: // kernel address smuggled as a "user" pointer
			return g.kaddr()
		}
	case ArgPathPtr:
		if r.Intn(4) == 0 {
			return kernel.UserBuf + uint64(r.Intn(1<<16))
		}
		return kernel.UserBuf + pathOffsets[r.Intn(len(pathOffsets))]
	case ArgCount:
		return pick(r, 0, 1, 7, 8, 63, 64, 4095, 4096, 8192, 1<<16, 1<<20, ^uint64(0))
	case ArgKAddr:
		return g.kaddr()
	case ArgSignal:
		return pick(r, 0, 1, 9, 11, 15, 16, 17, 64, ^uint64(0))
	case ArgIndex:
		return pick(r, 0, 1, 2, 3, 4, 7, 8, 511, 512, 1<<20, ^uint64(0))
	case ArgValue:
		switch r.Intn(4) {
		case 0:
			return g.kaddr()
		case 1:
			return uint64(r.Intn(256))
		default:
			return r.Uint64()
		}
	case ArgPages:
		return pick(r, 0, 1, 2, 8, 64, 511, 512, 513, ^uint64(0))
	}
	return r.Uint64()
}

// kaddr draws a kernel-space address of fuzzing interest: symbols, section
// boundaries, the physmap, and unmapped holes.
func (g *generator) kaddr() uint64 {
	r := g.rng
	if len(g.kaddrs) > 0 && r.Intn(3) != 0 {
		base := g.kaddrs[r.Intn(len(g.kaddrs))]
		return base + uint64(r.Intn(64))*8 - uint64(r.Intn(8))*8
	}
	return pick(r,
		0xffff880000000000, // physmap base
		0xffffffff80000000, // kernel base
		0xffff800000000000, // canonical boundary
		0xfffffffffffff000, // top of space
		r.Uint64()|1<<63,   // random upper-half
	)
}

func pick(r *rand.Rand, vals ...uint64) uint64 {
	return vals[r.Intn(len(vals))]
}

// generator produces and mutates programs deterministically from its rng.
type generator struct {
	rng    *rand.Rand
	kaddrs []uint64 // interesting kernel addresses, sorted at construction
	buf    []Call   // Mutate's scratch program, reused across calls
}

// Generate builds a fresh program of n typed calls.
func (g *generator) Generate(n int) *Prog {
	p := &Prog{Calls: make([]Call, 0, n)}
	for i := 0; i < n; i++ {
		p.Calls = append(p.Calls, g.genCall())
	}
	return p
}

func (g *generator) genCall() Call {
	r := g.rng
	var c Call
	if r.Intn(16) == 0 {
		// Out-of-table number: the dispatcher's bad-nr path.
		c.Nr = uint64(len(specs) + r.Intn(64))
	} else {
		c.Nr = uint64(r.Intn(len(specs)))
	}
	var spec *SyscallSpec
	if int(c.Nr) < len(specs) {
		spec = &specs[c.Nr]
	}
	for a := 0; a < 3; a++ {
		kind := ArgValue
		if spec != nil {
			if a < len(spec.Args) {
				kind = spec.Args[a]
			} else {
				kind = ArgNone
			}
		}
		if kind == ArgNone {
			c.Args[a] = 0
			continue
		}
		c.Args[a] = g.gen(kind)
	}
	return c
}

// Mutate derives a new program from p by one of the classic corpus
// mutations: insert, delete, replace-arg, duplicate, truncate, or splice
// with a second corpus program.
//
// The mutation edits a scratch copy of p, so the result is the only
// allocation: a Prog whose Calls fit it exactly.
func (g *generator) Mutate(p *Prog, other *Prog) *Prog {
	r := g.rng
	calls := append(g.buf[:0], p.Calls...)
	switch op := r.Intn(6); {
	case op == 0 || len(calls) == 0: // insert
		at := 0
		if len(calls) > 0 {
			at = r.Intn(len(calls) + 1)
		}
		calls = slices.Insert(calls, at, g.genCall())
	case op == 1 && len(calls) > 1: // delete
		at := r.Intn(len(calls))
		calls = slices.Delete(calls, at, at+1)
	case op == 2: // mutate one argument in place
		c := &calls[r.Intn(len(calls))]
		a := r.Intn(3)
		kind := ArgValue
		if int(c.Nr) < len(specs) && a < len(specs[c.Nr].Args) {
			kind = specs[c.Nr].Args[a]
		}
		if r.Intn(2) == 0 {
			c.Args[a] = g.gen(kind)
		} else {
			c.Args[a] ^= 1 << uint(r.Intn(64))
		}
	case op == 3: // duplicate a call
		at := r.Intn(len(calls))
		calls = slices.Insert(calls, at, calls[at])
	case op == 4 && len(calls) > 1: // truncate
		calls = calls[:1+r.Intn(len(calls)-1)]
	default: // splice
		if other != nil && len(other.Calls) > 0 {
			cut := r.Intn(len(calls) + 1)
			tail := other.Calls[r.Intn(len(other.Calls)):]
			calls = append(calls[:cut], tail...)
		} else {
			calls = append(calls, g.genCall())
		}
	}
	g.buf = calls[:0]
	const maxLen = 12
	if len(calls) > maxLen {
		calls = calls[:maxLen]
	}
	return (&Prog{Calls: calls}).Clone()
}
