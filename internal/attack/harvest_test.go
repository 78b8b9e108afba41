package attack

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/diversify"
	"repro/internal/kernel"
	"repro/internal/sfi"
)

// fullWindowJITROP is the JIT-ROP attack as it was before the harvest went
// on demand: leak the whole textWindow, then search it. It is the oracle
// the on-demand JITROP must agree with, Result for Result.
func fullWindowJITROP(target *kernel.Kernel) Result {
	res := Result{Name: "jit-rop", Stage: "pointer-harvest"}
	a := &Attacker{K: target}
	tbl := target.Sym("sys_call_table")
	var minPtr uint64 = ^uint64(0)
	for i := 0; i < kernel.NumSyscalls; i++ {
		v, ok := a.Leak(tbl + uint64(i)*8)
		if !ok {
			res.Detail = "syscall table unreadable?!"
			return res
		}
		if v != 0 && v < minPtr {
			minPtr = v
		}
	}
	res.Stage = "code-harvest"
	start := minPtr &^ 0xFFF
	code, _ := a.LeakRange(start, textWindow)
	if len(code) < 4096 {
		res.Detail = fmt.Sprintf("code read blocked after %d bytes (R^X)", len(code))
		return res
	}
	res.Stage = "gadget-search"
	pat, err := MovR8ImmPattern(target.Sym("cred"))
	if err != nil {
		res.Detail = err.Error()
		return res
	}
	hits := findPattern(code, pat)
	if len(hits) == 0 {
		res.Detail = "do_set_uid signature not found in harvested code"
		return res
	}
	targetAddr := start + uint64(hits[0])
	res.Stage = "exploitation"
	a.Hijack(targetAddr, 0)
	if a.UID() == 0 {
		res.Success = true
		res.Detail = fmt.Sprintf("uid=0 via code harvested at %#x", targetAddr)
		return res
	}
	res.Detail = "hijacked call did not reach do_set_uid"
	return res
}

// TestJITROPMatchesFullWindowHarvest runs the on-demand JIT-ROP and the
// full-window oracle against separate boots of the same image, for every
// krxattack ladder target plus HideM at 32 seeds: the Results must be
// identical, so stopping at the first hit changes no outcome. Vanilla
// ignores the seed, so it runs once.
func TestJITROPMatchesFullWindowHarvest(t *testing.T) {
	targets := []core.Config{core.Vanilla}
	for seed := int64(101); seed < 133; seed++ {
		targets = append(targets,
			core.Config{Diversify: true, RAProt: diversify.RAEncrypt, Seed: seed},
			core.Config{XOM: core.XOMSFI, SFILevel: sfi.O3, Diversify: true, Seed: seed},
			core.Config{XOM: core.XOMSFI, SFILevel: sfi.O3, Diversify: true, RAProt: diversify.RAEncrypt, Seed: seed},
			core.Config{XOM: core.XOMSFI, SFILevel: sfi.O3, Diversify: true, RAProt: diversify.RADecoy, Seed: seed},
			core.Config{XOM: core.XOMMPX, Diversify: true, RAProt: diversify.RAEncrypt, Seed: seed},
			core.Config{XOM: core.XOMHideM, Diversify: true, Seed: seed},
		)
	}
	stages := map[string]int{}
	for _, cfg := range targets {
		k := boot(t, cfg)
		ref, err := kernel.Boot(cfg, kernel.WithImage(k.Build))
		if err != nil {
			t.Fatal(err)
		}
		got, want := JITROP(k), fullWindowJITROP(ref)
		if got != want {
			t.Fatalf("%s seed %d:\n on demand:   %v\n full window: %v", cfg.Name(), cfg.Seed, got, want)
		}
		stages[got.Stage]++
	}
	// The sweep must exercise every way the harvest ends: a hit, a block
	// inside the first page, and a whole window without the signature.
	for _, st := range []string{"exploitation", "code-harvest", "gadget-search"} {
		if stages[st] == 0 {
			t.Errorf("no target ended at %s (stages: %v)", st, stages)
		}
	}
}

// fakeText is a leak primitive over a synthetic code window starting at
// start: reads at or past blockAt are blocked (blockAt < 0: never), reads
// past mem return zero words, and reads counts every call.
type fakeText struct {
	start   uint64
	mem     []byte
	blockAt int
	reads   int
}

func (f *fakeText) leak(addr uint64) (uint64, bool) {
	f.reads++
	off := int(addr - f.start)
	if f.blockAt >= 0 && off >= f.blockAt {
		return 0, false
	}
	if off+8 > len(f.mem) {
		return 0, true
	}
	return binary.LittleEndian.Uint64(f.mem[off:]), true
}

// fullWindowHarvest is harvest's oracle: it leaks the whole window, as
// JIT-ROP did before it went on demand, searches it with findPattern, and
// derives what an on-demand harvest must report: the lowest hit, the
// bytes read up to the end of the page in which that hit ends (or up to
// the block, if it comes first), and whether that block was reached.
func fullWindowHarvest(leak func(uint64) (uint64, bool), start uint64, pat []byte) (hit, n int, blocked bool) {
	code := make([]byte, 0, textWindow)
	for off := 0; off < textWindow; off += 8 {
		v, ok := leak(start + uint64(off))
		if !ok {
			blocked = true
			break
		}
		code = binary.LittleEndian.AppendUint64(code, v)
	}
	hits := findPattern(code, pat)
	if len(hits) == 0 {
		return -1, len(code), blocked
	}
	end := (max(hits[0]+len(pat), 1) + pageSize - 1) &^ (pageSize - 1)
	if end <= len(code) {
		return hits[0], end, false
	}
	return hits[0], len(code), blocked
}

// findPattern returns the offsets of every occurrence of pat in code, by
// comparing pat at every offset: the reference the searches above rely on.
func findPattern(code, pat []byte) []int {
	var out []int
	for i := 0; i+len(pat) <= len(code); i++ {
		if bytes.Equal(code[i:i+len(pat)], pat) {
			out = append(out, i)
		}
	}
	return out
}

// checkHarvest runs harvest and its oracle over the same fake window and
// requires the same hit, byte count and blocked flag, with one leak call
// per word read plus one for the blocked read.
func checkHarvest(t *testing.T, f *fakeText, pat []byte) (hit, n int, blocked bool) {
	t.Helper()
	f.reads = 0
	hit, n, blocked = harvest(f.leak, f.start, pat)
	reads := f.reads
	wantHit, wantN, wantBlocked := fullWindowHarvest(f.leak, f.start, pat)
	if hit != wantHit || n != wantN || blocked != wantBlocked {
		t.Fatalf("harvest = (hit %d, %d bytes, blocked %v), full window says (hit %d, %d bytes, blocked %v)",
			hit, n, blocked, wantHit, wantN, wantBlocked)
	}
	wantReads := n / 8
	if blocked {
		wantReads++
	}
	if reads != wantReads {
		t.Fatalf("harvest made %d leak calls for %d bytes (blocked %v), want %d", reads, n, blocked, wantReads)
	}
	return hit, n, blocked
}

// harvestPat is a 10-byte signature, the length of the mov-imm pattern
// JIT-ROP searches for.
var harvestPat = []byte{0x2a, 0x08, 0xef, 0xbe, 0xad, 0xde, 0x11, 0x22, 0x33, 0x44}

// textWith returns pages of 0x90 filler with harvestPat placed at each of
// the given offsets.
func textWith(pages int, at ...int) []byte {
	mem := bytes.Repeat([]byte{0x90}, pages*pageSize)
	for _, off := range at {
		copy(mem[off:], harvestPat)
	}
	return mem
}

func TestHarvestStraddlingSignature(t *testing.T) {
	// Each placement splits the signature across a page boundary, with 3,
	// 1 and len-1 bytes before it: only the tail carried over from the
	// earlier page lets the next page's search see it.
	for _, off := range []int{pageSize - 3, 2*pageSize - 1, 2*pageSize - len(harvestPat) + 1} {
		f := &fakeText{start: 0xffffffff80000000, mem: textWith(4, off), blockAt: -1}
		hit, n, _ := checkHarvest(t, f, harvestPat)
		if hit != off {
			t.Fatalf("signature at %#x straddling a page boundary: hit %d", off, hit)
		}
		if want := (off/pageSize + 2) * pageSize; n != want {
			t.Fatalf("signature at %#x: read %d bytes, want %d (through the page it ends in)", off, n, want)
		}
	}
}

func TestHarvestLowestOffsetWins(t *testing.T) {
	// A later page-local copy must not shadow an earlier straddling one.
	f := &fakeText{start: 0x1000, mem: textWith(3, pageSize+100, pageSize-4), blockAt: -1}
	if hit, _, _ := checkHarvest(t, f, harvestPat); hit != pageSize-4 {
		t.Fatalf("hit %d, want the straddling copy at %d", hit, pageSize-4)
	}
}

func TestHarvestBlocked(t *testing.T) {
	cases := []struct {
		name    string
		at      []int // signature placements
		blockAt int
		hit, n  int
		blocked bool
	}{
		{"at byte 0", nil, 0, -1, 0, true},
		{"mid first page", nil, 1024, -1, 1024, true},
		{"mid first page, hit before the block", []int{16}, 1024, 16, 1024, true},
		{"mid first page, hit cut by the block", []int{1020}, 1024, -1, 1024, true},
		{"after page 1", nil, pageSize + 512, -1, pageSize + 512, true},
		{"after page 1, hit in page 1", []int{200}, pageSize + 512, 200, pageSize, false},
		{"after page 1, hit before the block", []int{pageSize + 8}, pageSize + 512, pageSize + 8, pageSize + 512, true},
		{"at a page boundary, hit straddling it", []int{2*pageSize - 4}, 2 * pageSize, -1, 2 * pageSize, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := &fakeText{start: 0x400000, mem: textWith(4, c.at...), blockAt: c.blockAt}
			hit, n, blocked := checkHarvest(t, f, harvestPat)
			if hit != c.hit || n != c.n || blocked != c.blocked {
				t.Fatalf("got (hit %d, %d bytes, blocked %v), want (hit %d, %d bytes, blocked %v)",
					hit, n, blocked, c.hit, c.n, c.blocked)
			}
		})
	}
}

func TestHarvestLastPageOfWindow(t *testing.T) {
	pages := textWindow / pageSize
	at := textWindow - len(harvestPat)
	f := &fakeText{start: 0x10000, mem: textWith(pages, at), blockAt: -1}
	hit, n, blocked := checkHarvest(t, f, harvestPat)
	if hit != at || n != textWindow || blocked {
		t.Fatalf("got (hit %d, %d bytes, blocked %v), want (hit %d, %d bytes, not blocked)", hit, n, blocked, at, textWindow)
	}
	// One byte further and the signature leaves the window: a miss that
	// reads the whole window, as HideM's zero shadows do.
	f.mem = textWith(pages+1, at+1)
	if hit, n, _ := checkHarvest(t, f, harvestPat); hit != -1 || n != textWindow {
		t.Fatalf("signature past the window: hit %d after %d bytes", hit, n)
	}
}

func TestHarvestEmptyPatternReadsOnePage(t *testing.T) {
	f := &fakeText{start: 0x10000, mem: textWith(2), blockAt: -1}
	if hit, n, blocked := checkHarvest(t, f, nil); hit != 0 || n != pageSize || blocked {
		t.Fatalf("empty pattern: got (hit %d, %d bytes, blocked %v), want (0, %d, false)", hit, n, blocked, pageSize)
	}
}

// FuzzHarvest drives harvest and the full-window oracle over random page
// contents (a small alphabet, so near-misses and accidental matches
// happen), random signature lengths and placements, and random block
// offsets; both must agree on the hit, the bytes read and the blocked flag.
func FuzzHarvest(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(10), uint16(4093), int32(-1))
	f.Add(int64(2), uint8(1), uint8(1), uint16(0), int32(0))
	f.Add(int64(3), uint8(8), uint8(16), uint16(8190), int32(8192))
	f.Add(int64(4), uint8(2), uint8(4), uint16(100), int32(1024))
	f.Fuzz(func(t *testing.T, seed int64, pages, patLen uint8, place uint16, blockAt int32) {
		pages = pages%8 + 1
		patLen = patLen%32 + 1
		r := rand.New(rand.NewSource(seed))
		mem := make([]byte, int(pages)*pageSize)
		for i := range mem {
			mem[i] = byte(r.Intn(4))
		}
		pat := make([]byte, patLen)
		for i := range pat {
			pat[i] = byte(r.Intn(4))
		}
		if off := int(place) % len(mem); off+len(pat) <= len(mem) {
			copy(mem[off:], pat)
		}
		block := -1
		if blockAt >= 0 {
			block = int(blockAt) % (len(mem) + pageSize) &^ 7
		}
		checkHarvest(t, &fakeText{start: 0xffffffff80000000, mem: mem, blockAt: block}, pat)
	})
}
