package kas

import (
	"strings"
	"testing"

	"repro/internal/mem"
)

func sizes() SectionSizes {
	return SectionSizes{
		Text:    3 * mem.PageSize,
		KrxKeys: mem.PageSize,
		Rodata:  mem.PageSize,
		Data:    2 * mem.PageSize,
		Bss:     mem.PageSize,
		Brk:     mem.PageSize,
	}
}

func TestPlanVanillaLayout(t *testing.T) {
	l := PlanVanilla(sizes())
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// Vanilla: .text at the very start of the image.
	if l.Symbols["_text"] != KernelBase {
		t.Errorf("_text = %#x, want %#x", l.Symbols["_text"], KernelBase)
	}
	text := l.Region(".text")
	rodata := l.Region(".rodata")
	if text == nil || rodata == nil || text.End() != rodata.Start {
		t.Fatal("vanilla: .rodata must immediately follow .text")
	}
	// Vanilla layout interleaves: code sits below data (the problem!).
	if text.Start > rodata.Start {
		t.Error("vanilla: .text must precede data")
	}
}

func TestPlanKRXLayout(t *testing.T) {
	l := PlanKRX(sizes(), 0)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	edata := l.Symbols["_krx_edata"]
	text := l.Symbols["_text"]
	if text <= edata {
		t.Fatalf("_text (%#x) must lie above _krx_edata (%#x)", text, edata)
	}
	// The flip: .rodata now starts the image.
	if l.Symbols["_sdata"] != KernelBase {
		t.Errorf("_sdata = %#x, want %#x", l.Symbols["_sdata"], KernelBase)
	}
	// Guard section separates data from code and is at least the default.
	guard := l.Region(".krx_phantom")
	if guard == nil || guard.Size < DefaultGuardSize {
		t.Fatalf("guard section missing or too small: %+v", guard)
	}
	if guard.Start != edata {
		t.Errorf("guard must start at _krx_edata")
	}
	// .krxkeys is in the code region but non-executable.
	keys := l.Region(".krxkeys")
	if keys == nil || !keys.Code || keys.Perm&mem.PermX != 0 {
		t.Fatalf(".krxkeys misplaced: %+v", keys)
	}
	if keys.Start < edata {
		t.Error(".krxkeys must be above _krx_edata (unreadable by instrumented code)")
	}
	// modules split per §5.1.1.
	if l.Symbols["__start_modules_text"] != ModulesBase {
		t.Error("modules_text must occupy the original modules area")
	}
	if l.Symbols["__end_modules_data"] != KRXFixmapBase {
		t.Error("modules_data must end at the (relocated) fixmap")
	}
	// The crucial invariant: module data is readable, so it must sit
	// below _krx_edata — only code may live above the boundary.
	if l.Symbols["__end_modules_data"] > l.Symbols["_krx_edata"] {
		t.Error("modules_data must lie below _krx_edata")
	}
	if l.Symbols["__start_modules_text"] < l.Symbols["_krx_edata"] {
		t.Error("modules_text must lie above _krx_edata")
	}
}

func TestLayoutValidateCatchesViolations(t *testing.T) {
	l := PlanKRX(sizes(), 0)
	// Force a data region above _krx_edata.
	l.Regions = append(l.Regions, Region{
		Name: ".evil", Start: l.Symbols["_etext"] + 0x10000, Size: mem.PageSize, Perm: mem.PermRW,
	})
	if err := l.Validate(); err == nil {
		t.Error("data region above _krx_edata must be rejected")
	}

	l2 := PlanKRX(sizes(), 0)
	l2.Regions[0].Start = l2.Regions[1].Start // overlap
	if err := l2.Validate(); err == nil {
		t.Error("overlapping regions must be rejected")
	}
}

func TestInstallAndSynonyms(t *testing.T) {
	pool := NewPhysPool(4 << 20)
	l := PlanKRX(sizes(), 0)
	sp, err := Install(l, pool)
	if err != nil {
		t.Fatal(err)
	}
	// Before synonym unmapping, kernel text is readable via physmap.
	textVA := l.Symbols["_text"]
	if err := sp.AS.Poke(textVA, []byte{0xC3}); err != nil {
		t.Fatal(err)
	}
	syn, ok := sp.SynonymAddr(textVA)
	if !ok {
		t.Fatal("no synonym for text")
	}
	b, f := sp.AS.LoadByte(syn)
	if f != nil || b != 0xC3 {
		t.Fatalf("physmap synonym read: %v %#x", f, b)
	}
	// Unmap code synonyms; the alias disappears, the text stays fetchable.
	n, err := sp.UnmapCodeSynonyms()
	if err != nil || n == 0 {
		t.Fatalf("UnmapCodeSynonyms: n=%d err=%v", n, err)
	}
	if _, f := sp.AS.LoadByte(syn); f == nil {
		t.Fatal("code synonym still readable after unmapping")
	}
	var buf [1]byte
	if _, f := sp.AS.Fetch(textVA, buf[:]); f != nil || buf[0] != 0xC3 {
		t.Fatalf("text must remain fetchable: %v", f)
	}
	// Data sections keep their synonyms (they're legitimately readable).
	dataVA := l.Region(".data").Start
	if _, ok := sp.SynonymAddr(dataVA); !ok {
		t.Fatal("data synonym lookup failed")
	}
}

func TestInstallVanillaKeepsAllSynonyms(t *testing.T) {
	pool := NewPhysPool(4 << 20)
	sp, err := Install(PlanVanilla(sizes()), pool)
	if err != nil {
		t.Fatal(err)
	}
	n, err := sp.UnmapCodeSynonyms()
	if err != nil || n != 0 {
		t.Fatalf("vanilla layout must not unmap synonyms: n=%d err=%v", n, err)
	}
}

func TestModuleTextLifecycle(t *testing.T) {
	pool := NewPhysPool(4 << 20)
	l := PlanKRX(sizes(), 0)
	sp, err := Install(l, pool)
	if err != nil {
		t.Fatal(err)
	}
	code := []byte{0x90, 0x90, 0xC3}
	va := l.Symbols["__start_modules_text"]
	frames, pfn, err := sp.MapModuleText(va, code)
	if err != nil {
		t.Fatal(err)
	}
	// Module text is fetchable...
	var buf [3]byte
	if _, f := sp.AS.Fetch(va, buf[:]); f != nil || buf[2] != 0xC3 {
		t.Fatalf("module text fetch: %v %v", f, buf)
	}
	// ...but its physmap synonym has been closed.
	if _, f := sp.AS.LoadByte(PhysmapAddr(pfn)); f == nil {
		t.Fatal("module text synonym must be unmapped under kR^X")
	}
	// Unload: frames zapped, synonym restored.
	if err := sp.UnmapModuleText(va, frames, pfn); err != nil {
		t.Fatal(err)
	}
	b, f := sp.AS.LoadByte(PhysmapAddr(pfn))
	if f != nil || b != 0 {
		t.Fatalf("unloaded module frame must be zapped and remapped: %v %#x", f, b)
	}
	if sp.AS.Mapped(va) {
		t.Fatal("module text mapping must be gone")
	}
}

func TestAllocMapped(t *testing.T) {
	pool := NewPhysPool(1 << 20)
	sp, err := Install(PlanKRX(sizes(), 0), pool)
	if err != nil {
		t.Fatal(err)
	}
	va, err := sp.AllocMapped(2)
	if err != nil {
		t.Fatal(err)
	}
	if va < PhysmapBase {
		t.Fatalf("AllocMapped outside physmap: %#x", va)
	}
	if f := sp.AS.Write(va, 42, 8); f != nil {
		t.Fatal(f)
	}
}

func TestPoolExhaustion(t *testing.T) {
	pool := NewPhysPool(2 * mem.PageSize)
	if _, err := pool.Alloc(3); err == nil {
		t.Error("over-allocation must fail")
	}
	if _, err := pool.Alloc(2); err != nil {
		t.Error(err)
	}
	if _, err := pool.Alloc(1); err == nil {
		t.Error("pool must be exhausted")
	}
}

func TestDescribeFigure1(t *testing.T) {
	v := PlanVanilla(sizes()).Describe()
	k := PlanKRX(sizes(), 0).Describe()
	vs, ks := strings.Join(v, "\n"), strings.Join(k, "\n")
	if !strings.Contains(vs, "modules") || strings.Contains(vs, "modules_text") {
		t.Error("vanilla description must show a unified modules region")
	}
	if !strings.Contains(ks, "modules_text") || !strings.Contains(ks, "modules_data") {
		t.Error("kR^X description must show the split module regions")
	}
	if !strings.Contains(ks, ".krx_phantom") {
		t.Error("kR^X description must show the guard section")
	}
}

// TestAllocAfterPhysmapStore: a frame written through the physmap before
// it is allocated is the frame Alloc hands out — the same *Frame at both
// addresses, which is what makes §5.1.1's aliasing hazard real — and
// untouched physmap frames read zero without being allocated.
func TestAllocAfterPhysmapStore(t *testing.T) {
	pool := NewPhysPool(4 << 20)
	sp, err := Install(PlanKRX(sizes(), 0), pool)
	if err != nil {
		t.Fatal(err)
	}
	next := PhysmapAddr(pool.Mark())
	if v, f := sp.AS.Read(PhysmapAddr(pool.pages-1), 8); f != nil || v != 0 {
		t.Fatalf("last physmap frame reads %#x, %v", v, f)
	}
	if f := sp.AS.Write(next+8, 0x5eed, 8); f != nil {
		t.Fatal(f)
	}
	pfn, frames, err := sp.Alloc(1)
	if err != nil {
		t.Fatal(err)
	}
	if PhysmapAddr(pfn) != next {
		t.Fatalf("Alloc returned pfn %d, want the watermark", pfn)
	}
	if got, _ := sp.AS.FramesAt(next, 1); got[0] != frames[0] {
		t.Fatal("Alloc returned a frame the physmap does not map")
	}
	if frames[0].Data[8] != 0xed {
		t.Fatal("Alloc lost the store made through the physmap")
	}
	if got := sp.AS.PhysStats(); got.Pages != uint64(pool.pages) || got.Materialized+got.Holes != uint64(pool.Mark()) {
		t.Fatalf("PhysStats %+v with watermark %d", got, pool.Mark())
	}
}
