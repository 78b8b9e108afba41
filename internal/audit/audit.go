// Package audit verifies the kR^X security invariants of a booted kernel:
// the post-deployment checker a hardening project ships so operators can
// confirm the protections actually hold on a live system. It inspects the
// installed address space, the linked image, and the generated code, and
// reports every violation it finds.
package audit

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/kas"
	"repro/internal/kernel"
	"repro/internal/mem"
)

// Finding is one audit result.
type Finding struct {
	Check  string
	OK     bool
	Detail string
}

func (f Finding) String() string {
	verdict := "ok  "
	if !f.OK {
		verdict = "FAIL"
	}
	return fmt.Sprintf("[%s] %-28s %s", verdict, f.Check, f.Detail)
}

// Report is a full audit run.
type Report struct {
	Findings []Finding
}

// OK reports whether every finding passed.
func (r *Report) OK() bool {
	for _, f := range r.Findings {
		if !f.OK {
			return false
		}
	}
	return true
}

// String renders the report, one finding per line.
func (r *Report) String() string {
	s := ""
	for _, f := range r.Findings {
		s += f.String() + "\n"
	}
	return s
}

func (r *Report) add(check string, ok bool, format string, args ...any) {
	r.Findings = append(r.Findings, Finding{Check: check, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// Audit runs every applicable invariant check against the kernel.
func Audit(k *kernel.Kernel) *Report {
	r := &Report{}
	auditWX(k, r)
	if k.Img.Layout.Kind == kas.KRX {
		auditBoundary(k, r)
		auditSynonyms(k, r)
		auditGuard(k, r)
		auditKeys(k, r)
	}
	if k.Cfg.Diversify {
		auditEntryPhantoms(k, r)
	}
	if k.Cfg.XOM == core.XOMSFI {
		auditHandlerReachable(k, r)
	}
	if k.Cfg.XOM == core.XOMHideM {
		auditShadows(k, r)
	}
	return r
}

// auditShadows: under the HideM baseline every executable kernel page must
// serve the zero shadow to data reads while remaining fetchable.
func auditShadows(k *kernel.Kernel, r *Report) {
	bad := 0
	for _, rg := range k.Space.AS.Ranges() {
		if rg.Perm&mem.PermX == 0 || rg.Start < kas.KernelBase {
			continue
		}
		for va := rg.Start; va < rg.End; va += mem.PageSize {
			b, f := k.Space.AS.LoadByte(va)
			if f != nil || b != 0 {
				bad++
			}
			var buf [1]byte
			if _, f := k.Space.AS.Fetch(va, buf[:]); f != nil {
				bad++
			}
		}
	}
	r.add("hidem shadows", bad == 0, "%d pages with a readable code view", bad)
}

// auditWX: no page is simultaneously writable and executable (the W^X
// hardening assumption of §3).
func auditWX(k *kernel.Kernel, r *Report) {
	bad := 0
	var where uint64
	for _, rg := range k.Space.AS.Ranges() {
		if rg.Perm&mem.PermW != 0 && rg.Perm&mem.PermX != 0 {
			bad++
			where = rg.Start
		}
	}
	r.add("W^X", bad == 0, "%d W+X ranges (first at %#x)", bad, where)
}

// auditBoundary: under kR^X-KAS every executable page lies above
// _krx_edata and every writable page below it.
func auditBoundary(k *kernel.Kernel, r *Report) {
	// Kernel-image and module ranges only: user pages and the physmap
	// live far below the boundary by construction.
	edata := k.Sym("_krx_edata")
	badX, badW := 0, 0
	for _, rg := range k.Space.AS.Ranges() {
		if rg.Perm&mem.PermX != 0 && rg.Start < edata && rg.Start >= kas.KernelBase {
			badX++
		}
		if rg.Perm&mem.PermW != 0 && rg.Start >= edata && rg.Start < kas.FixmapBase {
			badW++
		}
	}
	r.add("R^X boundary", badX == 0 && badW == 0,
		"%d executable ranges below _krx_edata, %d writable above", badX, badW)
}

// auditSynonyms: no code-region page may have a readable physmap alias.
func auditSynonyms(k *kernel.Kernel, r *Report) {
	leaks := 0
	for _, rg := range k.Space.AS.Ranges() {
		if rg.Perm&mem.PermX == 0 || rg.Start < kas.KernelBase {
			continue
		}
		for va := rg.Start; va < rg.End; va += mem.PageSize {
			if syn, ok := k.Space.SynonymAddr(va); ok {
				if _, f := k.Space.AS.LoadByte(syn); f == nil {
					leaks++
				}
			}
		}
	}
	r.add("physmap synonyms", leaks == 0, "%d code pages readable through the physmap", leaks)
}

// auditGuard: the .krx_phantom guard is mapped with no permissions and is
// larger than the biggest uninstrumented %rsp displacement.
func auditGuard(k *kernel.Kernel, r *Report) {
	guard := k.Img.Layout.Region(".krx_phantom")
	if guard == nil {
		r.add("guard section", false, "missing")
		return
	}
	perm, ok := k.Space.AS.PermAt(guard.Start)
	inaccessible := ok && perm == 0
	big := uint64(k.Build.SFIStats.MaxStackDisp) < guard.Size
	r.add("guard section", inaccessible && big,
		"perm=%v size=%#x maxStackDisp=%#x", perm, guard.Size, k.Build.SFIStats.MaxStackDisp)
}

// auditKeys: every xkey slot lives above _krx_edata (unreachable by
// instrumented reads) and holds a non-zero value (replenished at boot).
func auditKeys(k *kernel.Kernel, r *Report) {
	if len(k.Img.KeyAddrs) == 0 {
		r.add("xkeys", true, "no keys (no return-address encryption)")
		return
	}
	edata := k.Sym("_krx_edata")
	badPlace, badValue := 0, 0
	for _, addr := range k.Img.KeyAddrs {
		if addr < edata {
			badPlace++
		}
		b, err := k.Space.AS.Peek(addr, 8)
		if err != nil {
			badPlace++
			continue
		}
		var v uint64
		for i := 0; i < 8; i++ {
			v |= uint64(b[i]) << (8 * i)
		}
		if v == 0 {
			badValue++
		}
	}
	r.add("xkeys", badPlace == 0 && badValue == 0,
		"%d keys, %d misplaced, %d unreplenished", len(k.Img.KeyAddrs), badPlace, badValue)
}

// auditEntryPhantoms: every diversified function begins with a lone jmp
// (the entry phantom block), so leaked function pointers reveal no gadgets.
func auditEntryPhantoms(k *kernel.Kernel, r *Report) {
	// One name index instead of a Program.Func scan per image function.
	// Like Program.Func, the first function of a name wins.
	funcs := make(map[string]*ir.Function, len(k.Build.Prog.Funcs))
	for _, fn := range k.Build.Prog.Funcs {
		if _, dup := funcs[fn.Name]; !dup {
			funcs[fn.Name] = fn
		}
	}
	bad := 0
	textStart := k.Sym("_text")
	for _, fs := range k.Img.Funcs {
		fn := funcs[fs.Name]
		if fn == nil || fn.NoDiversify {
			continue
		}
		off := fs.Addr - textStart
		if off >= uint64(len(k.Img.Text)) {
			bad++
			continue
		}
		in, _, err := isa.Decode(k.Img.Text[off:])
		if err != nil || in.Op != isa.JMP {
			bad++
		}
	}
	r.add("entry phantoms", bad == 0, "%d diversified functions lacking the entry jmp", bad)
}

// auditHandlerReachable: the SFI violation handler exists and halts.
func auditHandlerReachable(k *kernel.Kernel, r *Report) {
	addr, ok := k.Img.FuncAddr("krx_handler")
	if !ok {
		r.add("krx_handler", false, "symbol missing")
		return
	}
	var buf [16]byte
	n, f := k.Space.AS.Fetch(addr, buf[:])
	if f != nil || n == 0 {
		r.add("krx_handler", false, "not fetchable: %v", f)
		return
	}
	// The handler body must reach a hlt.
	found := false
	for _, line := range isa.Disassemble(buf[:n], addr) {
		if line.Err == nil && line.Instr.Op == isa.HLT {
			found = true
			break
		}
	}
	r.add("krx_handler", found, "halting handler at %#x", addr)
}
