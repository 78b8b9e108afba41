package kernel_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/diversify"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/module"
	"repro/internal/sfi"
)

// TestGoldenModuleLoadUnload loads, runs and unloads a module twice on each
// of two kernels booted from one golden kernel. Unloading zaps the module's
// text frames, which panics on a frame shared with the golden; the loads
// must therefore land on frames private to the child. The second kernel
// must see none of the first one's module traffic: both end with the same
// bytes everywhere.
func TestGoldenModuleLoadUnload(t *testing.T) {
	cfg := core.Config{XOM: core.XOMSFI, SFILevel: sfi.O3, Diversify: true, RAProt: diversify.RAEncrypt, Seed: 1}
	obj := func(ret int64) *module.Object {
		f, err := ir.NewBuilder("golden_mod_fn").I(isa.MovRI(isa.RAX, ret), isa.Ret()).Func()
		if err != nil {
			t.Fatal(err)
		}
		return &module.Object{
			Name: "golden_mod",
			Prog: &ir.Program{
				Funcs: []*ir.Function{f},
				Data:  []ir.DataSym{{Name: "golden_mod_data", Bytes: make([]byte, 16)}},
			},
		}
	}
	var images [2][sha256.Size]byte
	for i := range images {
		k, err := kernel.Boot(cfg, kernel.WithCache())
		if err != nil {
			t.Fatal(err)
		}
		l := module.NewLoader(k)
		for round := int64(1); round <= 2; round++ {
			m, err := l.Load(obj(round))
			if err != nil {
				t.Fatalf("kernel %d, load %d: %v", i, round, err)
			}
			if got := callAddr(t, k, m.Symbols["golden_mod_fn"]); got != uint64(round) {
				t.Fatalf("kernel %d, load %d: module returned %d", i, round, got)
			}
			if err := l.Unload("golden_mod"); err != nil {
				t.Fatalf("kernel %d, unload %d: %v", i, round, err)
			}
		}
		images[i] = hashMapped(t, k.Space.AS)
	}
	if images[0] != images[1] {
		t.Error("two kernels forked from one golden ended with different bytes after the same module traffic")
	}
}

// hashMapped hashes every mapped byte of as, in address order, with each
// range's bounds and permission in front of its contents.
func hashMapped(t *testing.T, as *mem.AddressSpace) [sha256.Size]byte {
	t.Helper()
	h := sha256.New()
	for _, r := range as.Ranges() {
		fmt.Fprintf(h, "%+v", r)
		for va := r.Start; va != r.End; va += mem.PageSize {
			b, err := as.Peek(va, mem.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}
