package audit

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/diversify"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/sfi"
)

// sfixRAEncrypt is the fuzzer's default configuration: every check but
// HideM's applies to it.
var sfixRAEncrypt = core.Config{XOM: core.XOMSFI, SFILevel: sfi.O3, Diversify: true, RAProt: diversify.RAEncrypt, Seed: 84}

// failedFresh lists the checks a one-shot Audit fails, in report order.
func failedFresh(k *kernel.Kernel) []string {
	var out []string
	for _, f := range Audit(k).Findings {
		if !f.OK {
			out = append(out, f.Check)
		}
	}
	return out
}

// TestCacheInvalidation changes each input of a cached verdict and checks
// that the finding flips, and flips back where the change is undone. The
// boots are uncached, so no sabotage reaches another kernel, and their
// frames are private, so content changes bump generations without
// touching the page table.
func TestCacheInvalidation(t *testing.T) {
	cases := []struct {
		name     string
		check    string
		sabotage func(t *testing.T, k *kernel.Kernel) (undo func())
	}{
		{"protect RWX", "W^X", func(t *testing.T, k *kernel.Kernel) func() {
			text := k.Sym("_text") &^ uint64(mem.PageMask)
			perm, _ := k.Space.AS.PermAt(text)
			mustDo(t, k.Space.AS.Protect(text, 1, mem.PermRWX))
			return func() { mustDo(t, k.Space.AS.Protect(text, 1, perm)) }
		}},
		{"remapped synonym", "physmap synonyms", func(t *testing.T, k *kernel.Kernel) func() {
			pfn, ok := k.Space.RegionPFN(".text")
			if !ok {
				t.Fatal("no .text pfn")
			}
			frames, err := k.Space.AS.FramesAt(k.Sym("_text")&^uint64(mem.PageMask), 1)
			mustDo(t, err)
			syn := kas_PhysmapAddr(pfn)
			mustDo(t, k.Space.AS.MapFrames(syn, frames, mem.PermR))
			return func() { mustDo(t, k.Space.AS.Unmap(syn, 1)) }
		}},
		{"key poke", "xkeys", func(t *testing.T, k *kernel.Kernel) func() {
			var addr uint64
			for _, a := range k.Img.KeyAddrs {
				addr = max(addr, a)
			}
			old, err := k.Space.AS.Peek(addr, 8)
			mustDo(t, err)
			mustDo(t, k.Space.AS.Poke(addr, make([]byte, 8)))
			return func() { mustDo(t, k.Space.AS.Poke(addr, old)) }
		}},
		{"handler hlt to nop", "krx_handler", func(t *testing.T, k *kernel.Kernel) func() {
			addr, _ := k.Img.FuncAddr("krx_handler")
			code, err := k.Space.AS.Peek(addr, handlerWindow)
			mustDo(t, err)
			patched := slices.Clone(code)
			for off := 0; off < len(patched); {
				in, n, ok := isa.TryDecode(patched[off:])
				if !ok {
					off++
					continue
				}
				if in.Op == isa.HLT {
					patched[off] = byte(isa.NOP)
				}
				off += n
			}
			mustDo(t, k.Space.AS.Poke(addr, patched))
			return func() { mustDo(t, k.Space.AS.Poke(addr, code)) }
		}},
		{"entry byte", "entry phantoms", func(t *testing.T, k *kernel.Kernel) func() {
			textStart := k.Sym("_text")
			for i, fs := range k.Img.Funcs {
				if !k.Build.NoDiversify[i] {
					b := &k.Img.Text[fs.Addr-textStart]
					old := *b
					*b = byte(isa.HLT)
					return func() { *b = old }
				}
			}
			t.Fatal("no diversified function")
			return nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := boot(t, sfixRAEncrypt)
			var c Cache
			if bad := c.Failed(k, nil); len(bad) != 0 {
				t.Fatalf("healthy kernel fails %v", bad)
			}
			undo := tc.sabotage(t, k)
			bad := c.Failed(k, nil)
			if !slices.Contains(bad, tc.check) {
				t.Fatalf("cached audit after sabotage fails %v, want %q among them", bad, tc.check)
			}
			if fresh := failedFresh(k); !slices.Equal(bad, fresh) {
				t.Fatalf("cached audit fails %v, fresh audit %v", bad, fresh)
			}
			undo()
			if bad := c.Failed(k, nil); len(bad) != 0 {
				t.Fatalf("cached audit after undo fails %v", bad)
			}
		})
	}
}

// TestCacheRebindsToAnotherKernel: handed a second kernel, a cache drops
// the first one's verdicts.
func TestCacheRebindsToAnotherKernel(t *testing.T) {
	healthy := boot(t, sfixRAEncrypt)
	broken := boot(t, sfixRAEncrypt)
	text := broken.Sym("_text") &^ uint64(mem.PageMask)
	mustDo(t, broken.Space.AS.Protect(text, 1, mem.PermRWX))
	var c Cache
	if bad := c.Failed(healthy, nil); len(bad) != 0 {
		t.Fatalf("healthy kernel fails %v", bad)
	}
	if bad := c.Failed(broken, nil); !slices.Equal(bad, failedFresh(broken)) || len(bad) == 0 {
		t.Fatalf("rebound cache fails %v, fresh audit %v", bad, failedFresh(broken))
	}
}

// TestCacheUnchangedKernelAllocatesNothing pins the steady state: once its
// verdicts are cached, auditing an unchanged kernel allocates nothing, under
// every preset and HideM.
func TestCacheUnchangedKernelAllocatesNothing(t *testing.T) {
	cfgs := append(core.Presets(), core.Config{XOM: core.XOMHideM, Seed: 85})
	for _, cfg := range cfgs {
		k := boot(t, cfg)
		var c Cache
		dst := c.Failed(k, nil)
		if allocs := testing.AllocsPerRun(50, func() { dst = c.Failed(k, dst[:0]) }); allocs != 0 {
			t.Errorf("%s: audit of an unchanged kernel allocates %.1f times, want 0", cfg.Name(), allocs)
		}
	}
}

func mustDo(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
