// Package audit verifies the kR^X security invariants of a booted kernel:
// the post-deployment checker a hardening project ships so operators can
// confirm the protections actually hold on a live system. It inspects the
// installed address space, the linked image, and the generated code, and
// reports every violation it finds. Audit is the one-shot report; a Cache
// audits the same kernel again and again, re-evaluating only the checks
// whose inputs changed (the fuzzer audits after every faulted iteration).
package audit

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/core"
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

// Audit runs every applicable invariant check against the kernel and
// renders each verdict's Detail: the one-shot report krxstats -audit and
// the tests print.
func Audit(k *kernel.Kernel) *Report {
	var c Cache
	c.refresh(k)
	r := &Report{Findings: make([]Finding, 0, len(c.checks))}
	for _, v := range c.checks {
		r.Findings = append(r.Findings, Finding{Check: v.name(), OK: v.ok(), Detail: v.detail()})
	}
	return r
}

// Cache keeps one kernel's audit verdicts together with the inputs each
// was computed from, so a repeated audit re-evaluates only the checks
// whose inputs changed. Most inputs never change while a kernel runs: the
// fuzzer audits after every faulted iteration, and a restore puts nearly
// everything back. Each verdict is keyed on its own inputs:
//
//   - W^X, the R^X boundary, physmap synonyms and the guard read only the
//     mapped ranges and the page table: keyed on AddressSpace.MapGen.
//   - xkeys read the key slots: keyed on the identity and Gen of the frame
//     behind every page a key touches.
//   - krx_handler reads at most two executable pages: keyed the same way,
//     on the frames ExecFrame reports.
//   - Entry phantoms read the first bytes of each diversified function in
//     Img.Text, which nothing versions: keyed on the bytes themselves,
//     recorded with the verdict.
//   - HideM shadows read the shadow frames' contents, so they are
//     re-evaluated every time.
//
// The zero value is ready to use. A Cache binds to the kernel it is first
// handed and starts afresh when handed another. It is not safe for
// concurrent use: hold one per kernel, and let it die with its owner.
type Cache struct {
	k      *kernel.Kernel
	checks []verdict // the kernel's applicable checks, in report order

	layoutValid bool
	layoutGen   uint64
	wx          wxVerdict
	boundary    boundaryVerdict
	synonyms    synonymsVerdict
	guard       guardVerdict

	keysValid bool
	keyAddrs  []uint64     // Img.KeyAddrs' slots
	keyPages  []frameStamp // every page a key slot touches
	keys      keysVerdict

	phantomsValid bool
	text          []byte // Img.Text, whose bytes are edited in place if at all
	entryOffs     []int  // offset in text of every diversified function
	entryBytes    []byte // each entry's first bytes, back to back
	phantoms      phantomsVerdict

	handlerValid bool
	handlerPages [2]frameStamp // the pages a 16-byte fetch at the handler spans
	handler      handlerVerdict

	shadows shadowsVerdict
}

// Failed appends to dst the names of the checks k fails, in Audit's order,
// and returns the extended slice. Nothing is formatted, and an audit of a
// kernel whose inputs are unchanged since the last call allocates nothing.
func (c *Cache) Failed(k *kernel.Kernel, dst []string) []string {
	c.refresh(k)
	for _, v := range c.checks {
		if !v.ok() {
			dst = append(dst, v.name())
		}
	}
	return dst
}

// refresh brings every applicable verdict up to date with k.
func (c *Cache) refresh(k *kernel.Kernel) {
	if c.k != k {
		c.bind(k)
	}
	as := k.Space.AS
	krx := k.Img.Layout.Kind == kas.KRX
	if !c.layoutValid || as.MapGen() != c.layoutGen {
		c.wx.compute(k)
		if krx {
			c.boundary.compute(k)
			c.synonyms.compute(k)
			c.guard.compute(k)
		}
		c.layoutValid, c.layoutGen = true, as.MapGen()
	}
	if krx && !(c.keysValid && fresh(c.keyPages, as.FrameAt)) {
		c.keys.compute(k, c.keyAddrs)
		stamp(c.keyPages, as.FrameAt)
		c.keysValid = true
	}
	if k.Cfg.Diversify && !(c.phantomsValid && c.entriesUnchanged()) {
		c.phantoms.bad = c.phantoms.outside
		for _, off := range c.entryOffs {
			if !entryJmp(c.text[off:]) {
				c.phantoms.bad++
			}
		}
		c.recordEntries()
		c.phantomsValid = true
	}
	if k.Cfg.XOM == core.XOMSFI && c.handler.exists &&
		!(c.handlerValid && fresh(c.handlerPages[:], as.ExecFrame)) {
		c.handler.compute(k)
		stamp(c.handlerPages[:], as.ExecFrame)
		c.handlerValid = true
	}
	if k.Cfg.XOM == core.XOMHideM {
		c.shadows.compute(k)
	}
}

// bind resets the cache to k and derives the facts of its image the
// checks need: which checks apply, the pages the key slots touch, where
// the diversified functions start, and where the handler lives.
func (c *Cache) bind(k *kernel.Kernel) {
	*c = Cache{k: k, checks: c.checks[:0]}
	c.checks = append(c.checks, &c.wx)
	if k.Img.Layout.Kind == kas.KRX {
		c.checks = append(c.checks, &c.boundary, &c.synonyms, &c.guard, &c.keys)
		var pages []uint64
		for _, addr := range k.Img.KeyAddrs {
			c.keyAddrs = append(c.keyAddrs, addr)
			pages = append(pages, addr&^mem.PageMask, (addr+7)&^mem.PageMask)
		}
		slices.Sort(pages)
		for _, va := range slices.Compact(pages) {
			c.keyPages = append(c.keyPages, frameStamp{va: va})
		}
	}
	if k.Cfg.Diversify {
		c.checks = append(c.checks, &c.phantoms)
		c.bindEntries(k)
	}
	if k.Cfg.XOM == core.XOMSFI {
		c.checks = append(c.checks, &c.handler)
		c.handler.addr, c.handler.exists = k.Img.FuncAddr("krx_handler")
		c.handlerPages[0].va = c.handler.addr &^ mem.PageMask
		c.handlerPages[1].va = (c.handler.addr + handlerWindow - 1) &^ mem.PageMask
	}
	if k.Cfg.XOM == core.XOMHideM {
		c.checks = append(c.checks, &c.shadows)
	}
}

// frameStamp records the frame a page mapped, and its generation, when a
// verdict read it.
type frameStamp struct {
	va  uint64
	f   *mem.Frame // nil: the page was unmapped (or, for ExecFrame, not executable)
	gen uint64
}

// fresh reports whether every stamped page still maps the same frame at
// the same generation.
func fresh(ps []frameStamp, frameAt func(uint64) (*mem.Frame, bool)) bool {
	for i := range ps {
		f, _ := frameAt(ps[i].va)
		if f != ps[i].f || f != nil && f.Gen() != ps[i].gen {
			return false
		}
	}
	return true
}

// stamp records the frames the pages map now.
func stamp(ps []frameStamp, frameAt func(uint64) (*mem.Frame, bool)) {
	for i := range ps {
		f, _ := frameAt(ps[i].va)
		ps[i].f, ps[i].gen = f, 0
		if f != nil {
			ps[i].gen = f.Gen()
		}
	}
}

// verdict is one check's outcome. It holds the figures its Detail renders,
// so computing it never formats; only Audit calls detail.
type verdict interface {
	name() string
	ok() bool
	detail() string
}

// wxVerdict: no page is simultaneously writable and executable (the W^X
// hardening assumption of §3).
type wxVerdict struct {
	bad   int
	where uint64
}

func (v *wxVerdict) compute(k *kernel.Kernel) {
	*v = wxVerdict{}
	for _, rg := range k.Space.AS.Ranges() {
		if rg.Perm&mem.PermW != 0 && rg.Perm&mem.PermX != 0 {
			v.bad++
			v.where = rg.Start
		}
	}
}

func (v *wxVerdict) name() string { return "W^X" }
func (v *wxVerdict) ok() bool     { return v.bad == 0 }
func (v *wxVerdict) detail() string {
	return fmt.Sprintf("%d W+X ranges (first at %#x)", v.bad, v.where)
}

// boundaryVerdict: under kR^X-KAS every executable page lies above
// _krx_edata and every writable page below it.
type boundaryVerdict struct {
	badX, badW int
}

func (v *boundaryVerdict) compute(k *kernel.Kernel) {
	// Kernel-image and module ranges only: user pages and the physmap
	// live far below the boundary by construction.
	edata := k.Sym("_krx_edata")
	*v = boundaryVerdict{}
	for _, rg := range k.Space.AS.Ranges() {
		if rg.Perm&mem.PermX != 0 && rg.Start < edata && rg.Start >= kas.KernelBase {
			v.badX++
		}
		if rg.Perm&mem.PermW != 0 && rg.Start >= edata && rg.Start < kas.FixmapBase {
			v.badW++
		}
	}
}

func (v *boundaryVerdict) name() string { return "R^X boundary" }
func (v *boundaryVerdict) ok() bool     { return v.badX == 0 && v.badW == 0 }
func (v *boundaryVerdict) detail() string {
	return fmt.Sprintf("%d executable ranges below _krx_edata, %d writable above", v.badX, v.badW)
}

// synonymsVerdict: no code-region page may have a readable physmap alias.
type synonymsVerdict struct {
	leaks int
}

func (v *synonymsVerdict) compute(k *kernel.Kernel) {
	v.leaks = 0
	for _, rg := range k.Space.AS.Ranges() {
		if rg.Perm&mem.PermX == 0 || rg.Start < kas.KernelBase {
			continue
		}
		for va := rg.Start; va < rg.End; va += mem.PageSize {
			if syn, ok := k.Space.SynonymAddr(va); ok && k.Space.AS.Readable(syn) {
				v.leaks++
			}
		}
	}
}

func (v *synonymsVerdict) name() string { return "physmap synonyms" }
func (v *synonymsVerdict) ok() bool     { return v.leaks == 0 }
func (v *synonymsVerdict) detail() string {
	return fmt.Sprintf("%d code pages readable through the physmap", v.leaks)
}

// guardVerdict: the .krx_phantom guard is mapped with no permissions and
// is larger than the biggest uninstrumented %rsp displacement.
type guardVerdict struct {
	missing       bool
	perm          mem.Perm
	pass          bool
	size, maxDisp uint64
}

func (v *guardVerdict) compute(k *kernel.Kernel) {
	guard := k.Img.Layout.Region(".krx_phantom")
	if guard == nil {
		*v = guardVerdict{missing: true}
		return
	}
	perm, ok := k.Space.AS.PermAt(guard.Start)
	inaccessible := ok && perm == 0
	maxDisp := uint64(k.Build.SFIStats.MaxStackDisp)
	*v = guardVerdict{perm: perm, pass: inaccessible && maxDisp < guard.Size, size: guard.Size, maxDisp: maxDisp}
}

func (v *guardVerdict) name() string { return "guard section" }
func (v *guardVerdict) ok() bool     { return v.pass }
func (v *guardVerdict) detail() string {
	if v.missing {
		return "missing"
	}
	return fmt.Sprintf("perm=%v size=%#x maxStackDisp=%#x", v.perm, v.size, v.maxDisp)
}

// keysVerdict: every xkey slot lives above _krx_edata (unreachable by
// instrumented reads) and holds a non-zero value (replenished at boot).
type keysVerdict struct {
	n, badPlace, badValue int
}

func (v *keysVerdict) compute(k *kernel.Kernel, addrs []uint64) {
	edata := k.Sym("_krx_edata")
	*v = keysVerdict{n: len(addrs)}
	for _, addr := range addrs {
		if addr < edata {
			v.badPlace++
		}
		key, ok := k.Space.AS.PeekUint64(addr)
		if !ok {
			v.badPlace++
			continue
		}
		if key == 0 {
			v.badValue++
		}
	}
}

func (v *keysVerdict) name() string { return "xkeys" }
func (v *keysVerdict) ok() bool     { return v.badPlace == 0 && v.badValue == 0 }
func (v *keysVerdict) detail() string {
	if v.n == 0 {
		return "no keys (no return-address encryption)"
	}
	return fmt.Sprintf("%d keys, %d misplaced, %d unreplenished", v.n, v.badPlace, v.badValue)
}

// phantomsVerdict: every diversified function begins with a lone jmp (the
// entry phantom block), so leaked function pointers reveal no gadgets.
type phantomsVerdict struct {
	outside int // diversified functions that start past the end of Img.Text
	bad     int
}

func (v *phantomsVerdict) name() string { return "entry phantoms" }
func (v *phantomsVerdict) ok() bool     { return v.bad == 0 }
func (v *phantomsVerdict) detail() string {
	return fmt.Sprintf("%d diversified functions lacking the entry jmp", v.bad)
}

// entryJmp reports whether code starts with a jmp.
func entryJmp(code []byte) bool {
	in, _, ok := isa.TryDecode(code)
	return ok && in.Op == isa.JMP
}

// bindEntries finds the offset in Img.Text of every diversified function.
func (c *Cache) bindEntries(k *kernel.Kernel) {
	c.text = k.Img.Text
	textStart := k.Sym("_text")
	for i, fs := range k.Img.Funcs {
		if k.Build.NoDiversify[i] {
			continue
		}
		off := fs.Addr - textStart
		if off >= uint64(len(c.text)) {
			c.phantoms.outside++
			continue
		}
		c.entryOffs = append(c.entryOffs, int(off))
	}
}

// entryWindow returns the bytes of text a decode at off can read: up to
// one maximal instruction.
func entryWindow(text []byte, off int) []byte {
	return text[off:min(off+isa.MaxInstrLen, len(text))]
}

// recordEntries stores the entry bytes the phantoms verdict was computed
// from.
func (c *Cache) recordEntries() {
	c.entryBytes = c.entryBytes[:0]
	for _, off := range c.entryOffs {
		c.entryBytes = append(c.entryBytes, entryWindow(c.text, off)...)
	}
}

// entriesUnchanged reports whether the text still holds the entry bytes
// the phantoms verdict was computed from.
func (c *Cache) entriesUnchanged() bool {
	rec := c.entryBytes
	for _, off := range c.entryOffs {
		w := entryWindow(c.text, off)
		if !bytes.Equal(w, rec[:len(w)]) {
			return false
		}
		rec = rec[len(w):]
	}
	return true
}

// handlerWindow is how many bytes of krx_handler the check fetches.
const handlerWindow = 16

// handlerVerdict: the SFI violation handler exists and halts.
type handlerVerdict struct {
	addr   uint64
	exists bool
	n      int        // bytes fetched
	fault  *mem.Fault // the fetch fault, when nothing could be fetched
	halts  bool
}

func (v *handlerVerdict) compute(k *kernel.Kernel) {
	var buf [handlerWindow]byte
	n, f := k.Space.AS.Fetch(v.addr, buf[:])
	v.n, v.fault, v.halts = n, f, false
	if f != nil || n == 0 {
		return
	}
	// The handler body must reach a hlt. Decode as Disassemble does,
	// skipping one byte past an undecodable one.
	for off := 0; off < n; {
		in, l, ok := isa.TryDecode(buf[off:n])
		if !ok {
			off++
			continue
		}
		if in.Op == isa.HLT {
			v.halts = true
			return
		}
		off += l
	}
}

func (v *handlerVerdict) name() string { return "krx_handler" }
func (v *handlerVerdict) ok() bool     { return v.halts }
func (v *handlerVerdict) detail() string {
	switch {
	case !v.exists:
		return "symbol missing"
	case v.fault != nil || v.n == 0:
		return fmt.Sprintf("not fetchable: %v", v.fault)
	}
	return fmt.Sprintf("halting handler at %#x", v.addr)
}

// shadowsVerdict: under the HideM baseline every executable kernel page
// must serve the zero shadow to data reads while remaining fetchable.
type shadowsVerdict struct {
	bad int
}

func (v *shadowsVerdict) compute(k *kernel.Kernel) {
	v.bad = 0
	for _, rg := range k.Space.AS.Ranges() {
		if rg.Perm&mem.PermX == 0 || rg.Start < kas.KernelBase {
			continue
		}
		for va := rg.Start; va < rg.End; va += mem.PageSize {
			b, f := k.Space.AS.LoadByte(va)
			if f != nil || b != 0 {
				v.bad++
			}
			var buf [1]byte
			if _, f := k.Space.AS.Fetch(va, buf[:]); f != nil {
				v.bad++
			}
		}
	}
}

func (v *shadowsVerdict) name() string { return "hidem shadows" }
func (v *shadowsVerdict) ok() bool     { return v.bad == 0 }
func (v *shadowsVerdict) detail() string {
	return fmt.Sprintf("%d pages with a readable code view", v.bad)
}
