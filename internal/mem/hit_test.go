package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// hitRead is a load the way the CPU's compiled thunks make it: the hit
// accessor first, Read when it declines.
func hitRead(as *AddressSpace, va uint64, size uint8) (uint64, *Fault) {
	if p := as.ReadHits(va, uint64(size), 1); p != nil {
		return leValue(p[va&PageMask:], size), nil
	}
	return as.Read(va, size)
}

// hitWrite is hitRead's store: WriteHit first, Write when it declines.
func hitWrite(as *AddressSpace, va, v uint64, size uint8) *Fault {
	if p := as.WriteHit(va, uint64(size)); p != nil {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		copy(p[va&PageMask:], b[:size])
		return nil
	}
	return as.Write(va, v, size)
}

// groupRead is a load group's read of words at the offsets offs (each size
// bytes) from va: ReadHits over their whole span first; when it declines,
// one hitRead per word, stopping at the first fault.
func groupRead(as *AddressSpace, va uint64, offs []uint64, size uint8) ([]uint64, *Fault) {
	span := uint64(0)
	for _, o := range offs {
		span = max(span, o+uint64(size))
	}
	out := make([]uint64, len(offs))
	if p := as.ReadHits(va, span, uint64(len(offs))); p != nil {
		for i, o := range offs {
			out[i] = leValue(p[(va+o)&PageMask:], size)
		}
		return out, nil
	}
	for i, o := range offs {
		v, f := hitRead(as, va+o, size)
		if f != nil {
			return out[:i], f
		}
		out[i] = v
	}
	return out, nil
}

func leValue(b []byte, size uint8) uint64 {
	var v uint64
	for i := uint8(0); i < size; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

// twin is one address space of FuzzDataTLB, with how it accesses data.
type twin struct {
	name  string
	as    *AddressSpace
	read  func(as *AddressSpace, va uint64, size uint8) (uint64, *Fault)
	write func(as *AddressSpace, va, v uint64, size uint8) *Fault
	group func(as *AddressSpace, va uint64, offs []uint64, size uint8) ([]uint64, *Fault)
}

// dtlbPages are the page numbers FuzzDataTLB works on: pairs that share a
// data-TLB slot (0x10 and 0x50, ...), so fills evict each other, and the
// demand-zero window's first pages.
var dtlbPages = []uint64{0x10, 0x11, 0x12, 0x50, 0x51, 0x52, 0x90, 0x91}

// FuzzDataTLB checks the data-TLB hit accessors against the byte loop. One
// random sequence of operations runs on three address spaces built alike:
// "hit" makes every access through the hit accessors (ReadHits, WriteHit)
// and falls back to Read and Write as the CPU does, "word" uses
// Read and Write alone, and "byte" the LoadByte/StoreByte loop. The
// operations are Map, Unmap, Protect, ShadowData, EPT flips,
// Checkpoint, Rollback, Freeze and Fork (whose next stores break copy-on-
// write), and reads, writes and same-base group reads of 1 to 8 bytes at
// offsets that straddle pages. After every operation all three must report
// the same values and the same faults, hold the same bytes on every page,
// and hit and word must read the same data-TLB counters: a hit accessor
// counts exactly what the Read or Write it stands in for would have.
func FuzzDataTLB(f *testing.F) {
	// Each operation is four bytes: op, page, offset (two bytes).
	for _, seed := range [][]byte{
		// Read a page (fill), flip EPT, read again: the cached read bit
		// must follow the flag.
		{0, 0, 0, 8, 6, 0, 0, 0, 0, 0, 0, 8},
		// Write, protect read-only, write again.
		{1, 1, 0x10, 0, 4, 1, 0, 0, 1, 1, 0x10, 0},
		// Checkpoint, write, rollback, write, read.
		{8, 0, 0, 0, 1, 2, 0, 0x40, 9, 0, 0, 0, 1, 2, 0, 0x40, 0, 2, 0, 0x40},
		// Freeze, fork, write (CoW break), read; a group read at a page end.
		{10, 0, 0, 0, 11, 0, 0, 0, 1, 3, 0, 0, 0, 3, 0, 0, 2, 0, 0x0f, 0xf8},
		// Read a page, shadow it, read it, write it, read it.
		{0, 4, 0, 0, 5, 4, 0, 0, 0, 4, 0, 0, 1, 4, 0, 0, 0, 4, 0, 0},
		// A demand-zero page: read, write (materializes), read.
		{0, 6, 0, 8, 1, 6, 0, 8, 0, 6, 0, 8},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4*256 {
			ops = ops[:4*256]
		}
		ts := []*twin{
			{name: "hit", read: hitRead, write: hitWrite, group: groupRead},
			{name: "word", read: (*AddressSpace).Read, write: (*AddressSpace).Write},
			{name: "byte", read: readRef, write: writeRef},
		}
		for _, tw := range ts {
			tw.as = dtlbLayout(t)
		}
		for step := 0; len(ops) >= 4; step, ops = step+1, ops[4:] {
			op, pg := ops[0]%12, dtlbPages[int(ops[1])%len(dtlbPages)]
			va := pg<<PageShift + uint64(binary.LittleEndian.Uint16(ops[2:]))%PageSize
			size := uint8(1) << (ops[1] >> 4 & 3)
			v := uint64(step+1) * 0x9e3779b97f4a7c15
			what := fmt.Sprintf("step %d: op %d at %#x size %d", step, op, va, size)
			results := make([]string, len(ts))
			for i, tw := range ts {
				results[i] = dtlbOp(tw, op, pg, va, size, v)
			}
			for i := range ts[1:] {
				if results[i+1] != results[0] {
					t.Fatalf("%s: %s %q, %s %q", what, ts[0].name, results[0], ts[i+1].name, results[i+1])
				}
			}
			for _, p := range dtlbPages {
				a, errA := ts[0].as.Peek(p<<PageShift, PageSize)
				for _, tw := range ts[1:] {
					b, errB := tw.as.Peek(p<<PageShift, PageSize)
					if (errA == nil) != (errB == nil) || !bytes.Equal(a, b) {
						t.Fatalf("%s: page %#x differs between %s and %s", what, p<<PageShift, ts[0].name, tw.name)
					}
				}
			}
			if h, w := ts[0].as.DataTLBStats(), ts[1].as.DataTLBStats(); h != w {
				t.Fatalf("%s: data-TLB stats %+v through the hit accessors, %+v through Read/Write", what, h, w)
			}
		}
	})
}

// dtlbLayout builds FuzzDataTLB's address space: RW pages at the first five
// dtlbPages, filled with the same bytes, an execute-only one at 0x52000,
// and a demand-zero window over the last two.
func dtlbLayout(t *testing.T) *AddressSpace {
	t.Helper()
	as := NewAddressSpace()
	fill := make([]byte, PageSize)
	for i := range fill {
		fill[i] = byte(i*7 + i>>8)
	}
	for _, p := range []uint64{0x10, 0x11, 0x12, 0x50, 0x51} {
		if _, err := as.Map(p<<PageShift, 1, PermRW); err != nil {
			t.Fatal(err)
		}
		if err := as.Poke(p<<PageShift, fill); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := as.Map(0x52<<PageShift, 1, PermX); err != nil {
		t.Fatal(err)
	}
	if err := as.MapDemandZero(0x90<<PageShift, 2); err != nil {
		t.Fatal(err)
	}
	return as
}

// dtlbOp applies one FuzzDataTLB operation to tw and describes its outcome.
func dtlbOp(tw *twin, op byte, pg, va uint64, size uint8, v uint64) string {
	as := tw.as
	base := pg << PageShift
	perms := []Perm{PermR, PermRW, PermX, PermRX, PermRWX, 0}
	switch op {
	case 0:
		x, f := tw.read(as, va, size)
		return fmt.Sprintf("read %#x %v", x, faultKey(f))
	case 1:
		return fmt.Sprintf("write %v", faultKey(tw.write(as, va, v, size)))
	case 2:
		offs := []uint64{0, 8, 16, 24, uint64(v>>60) * 8}
		if tw.group == nil {
			var out []uint64
			for _, o := range offs {
				x, f := tw.read(as, va+o, size)
				if f != nil {
					return fmt.Sprintf("group %#x %v", out, faultKey(f))
				}
				out = append(out, x)
			}
			return fmt.Sprintf("group %#x %v", out, faultKey(nil))
		}
		out, f := tw.group(as, va, offs, size)
		return fmt.Sprintf("group %#x %v", out, faultKey(f))
	case 3:
		_, err := as.Map(base, 1, perms[(v>>61)%uint64(len(perms))])
		return fmt.Sprintf("map %v", err == nil)
	case 4:
		return fmt.Sprintf("protect %v", as.Protect(base, 1, perms[(v>>61)%uint64(len(perms))]) == nil)
	case 5:
		return fmt.Sprintf("shadow %v", as.ShadowData(base, 1, nil) == nil)
	case 6:
		as.EPT = !as.EPT
		return "ept"
	case 7:
		return fmt.Sprintf("unmap %v", as.Unmap(base, 1) == nil)
	case 8:
		as.Checkpoint()
		return "checkpoint"
	case 9:
		return fmt.Sprintf("rollback %v", as.Rollback() == nil)
	case 10:
		return fmt.Sprintf("freeze %v", as.Freeze() == nil)
	default:
		child, err := as.Fork()
		if err == nil {
			tw.as = child
		}
		return fmt.Sprintf("fork %v", err == nil)
	}
}

// faultKey renders a fault's identity: kind, address and direction.
func faultKey(f *Fault) string {
	if f == nil {
		return "ok"
	}
	return fmt.Sprintf("%v@%#x/w=%v", f.Kind, f.Addr, f.Write)
}
