package audit

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/diversify"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/sfi"
)

func boot(t *testing.T, cfg core.Config) *kernel.Kernel {
	t.Helper()
	k, err := kernel.Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestAuditPassesOnEveryPreset(t *testing.T) {
	for _, cfg := range core.Presets() {
		cfg.Seed = 77
		k := boot(t, cfg)
		rep := Audit(k)
		if !rep.OK() {
			t.Errorf("%s:\n%s", cfg.Name(), rep)
		}
	}
}

func TestAuditHideM(t *testing.T) {
	k := boot(t, core.Config{XOM: core.XOMHideM, Seed: 82})
	rep := Audit(k)
	if !rep.OK() {
		t.Fatalf("HideM kernel fails audit:\n%s", rep)
	}
	if !strings.Contains(rep.String(), "hidem shadows") {
		t.Fatal("HideM shadow check missing")
	}
}

func TestAuditPassesWithExtensions(t *testing.T) {
	k := boot(t, core.Config{
		XOM: core.XOMSFI, SFILevel: sfi.O3,
		Diversify: true, RAProt: diversify.RAEncrypt,
		RegRand: true, FullCoverage: true, Seed: 78,
	})
	rep := Audit(k)
	if !rep.OK() {
		t.Fatalf("extended config fails audit:\n%s", rep)
	}
}

func TestAuditDetectsWXViolation(t *testing.T) {
	k := boot(t, core.Config{XOM: core.XOMSFI, SFILevel: sfi.O3, Seed: 79})
	// Sabotage: make a text page writable too (the Appendix A bug's
	// effect, from the other direction).
	text := k.Sym("_text") &^ uint64(mem.PageMask)
	if err := k.Space.AS.Protect(text, 1, mem.PermRWX); err != nil {
		t.Fatal(err)
	}
	rep := Audit(k)
	if rep.OK() {
		t.Fatal("audit must flag the W+X page")
	}
	if !strings.Contains(rep.String(), "W^X") {
		t.Fatalf("wrong finding:\n%s", rep)
	}
}

func TestAuditDetectsLingeringSynonym(t *testing.T) {
	k := boot(t, core.Config{XOM: core.XOMSFI, SFILevel: sfi.O3, Seed: 80})
	// Sabotage: re-map the physmap alias of the first text page.
	pfn, ok := k.Space.RegionPFN(".text")
	if !ok {
		t.Fatal("no .text pfn")
	}
	frames, err := k.Space.AS.FramesAt(k.Sym("_text")&^uint64(mem.PageMask), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Space.AS.MapFrames(kas_PhysmapAddr(pfn), frames, mem.PermR); err != nil {
		t.Fatal(err)
	}
	rep := Audit(k)
	if rep.OK() {
		t.Fatal("audit must flag the readable code synonym")
	}
}

func kas_PhysmapAddr(pfn int) uint64 { return 0xffff880000000000 + uint64(pfn)<<12 }

func TestAuditDetectsZeroedKeys(t *testing.T) {
	k := boot(t, core.Config{XOM: core.XOMSFI, SFILevel: sfi.O3, Diversify: true, RAProt: diversify.RAEncrypt, Seed: 81})
	// Sabotage: zero one key (as if replenishment was skipped).
	for _, addr := range k.Img.KeyAddrs {
		if err := k.Space.AS.Poke(addr, make([]byte, 8)); err != nil {
			t.Fatal(err)
		}
		break
	}
	rep := Audit(k)
	if rep.OK() {
		t.Fatal("audit must flag the unreplenished key")
	}
}

// TestAuditDetectsMissingEntryPhantom: a diversified function whose first
// instruction is not the entry phantom's jmp fails the check, and it is the
// only function counted.
func TestAuditDetectsMissingEntryPhantom(t *testing.T) {
	// An uncached boot: the image is this kernel's own, so the sabotage
	// cannot reach any other kernel.
	k := boot(t, core.Config{XOM: core.XOMSFI, SFILevel: sfi.O3, Diversify: true, RAProt: diversify.RADecoy, Seed: 83})
	phantoms := func() Finding {
		t.Helper()
		for _, f := range Audit(k).Findings {
			if f.Check == "entry phantoms" {
				return f
			}
		}
		t.Fatal("no entry phantoms finding")
		return Finding{}
	}
	if f := phantoms(); !f.OK {
		t.Fatalf("healthy kernel: %s", f)
	}
	// Sabotage: the first diversified function starts with a hlt.
	textStart := k.Sym("_text")
	for i, fs := range k.Img.Funcs {
		if !k.Build.NoDiversify[i] {
			k.Img.Text[fs.Addr-textStart] = byte(isa.HLT)
			break
		}
	}
	f := phantoms()
	if f.OK || f.Detail != "1 diversified functions lacking the entry jmp" {
		t.Fatalf("want exactly one function flagged, got %s", f)
	}
}

func TestReportFormatting(t *testing.T) {
	k := boot(t, core.Vanilla)
	rep := Audit(k)
	out := rep.String()
	if !strings.Contains(out, "W^X") || !strings.Contains(out, "ok") {
		t.Fatalf("unexpected report:\n%s", out)
	}
}
