package obs

import (
	"encoding/json"
	"fmt"
	"testing"
)

func TestTracerRingOverflow(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 7; i++ {
		tr.Emit(EvFault, fmt.Sprintf("f%d", i), uint64(i), 0)
	}
	if tr.Dropped() != 3 {
		t.Errorf("dropped = %d, want 3", tr.Dropped())
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("len = %d, want 4", len(evs))
	}
	// Oldest three overwritten: the ring holds f3..f6, oldest first.
	for i, e := range evs {
		if want := fmt.Sprintf("f%d", i+3); e.Name != want {
			t.Errorf("evs[%d].Name = %s, want %s", i, e.Name, want)
		}
	}
	// Seq keeps counting across overwrites.
	if evs[3].Seq != 6 {
		t.Errorf("last seq = %d, want 6", evs[3].Seq)
	}
}

func TestTracerTakeResetsSequence(t *testing.T) {
	tr := NewTracer(8)
	tr.Emit(EvSnapshot, "snapshot", 0, 0)
	first := tr.Take()
	if len(first) != 1 || tr.Len() != 0 {
		t.Fatalf("take returned %d events, ring holds %d", len(first), tr.Len())
	}
	tr.Emit(EvRestore, "restore", 0, 0)
	second := tr.Take()
	if second[0].Seq != 0 {
		t.Errorf("seq after Take = %d, want 0 (per-iteration streams must be self-contained)", second[0].Seq)
	}
}

func TestRenumberAndTraceText(t *testing.T) {
	evs := []Event{
		{Seq: 9, Kind: EvSyscallEnter, Name: "sys_null", Arg: 0},
		{Seq: 12, Kind: EvSyscallExit, Name: "sys_null", Cycles: 40},
	}
	Renumber(evs)
	if evs[0].Seq != 0 || evs[1].Seq != 1 {
		t.Fatalf("renumber: %d, %d", evs[0].Seq, evs[1].Seq)
	}
	want := "#0 i=0 c=0 syscall-enter sys_null addr=0x0 arg=0x0\n" +
		"#1 i=0 c=40 syscall-exit sys_null addr=0x0 arg=0x0\n"
	if got := TraceText(evs); got != want {
		t.Errorf("TraceText:\n got %q\nwant %q", got, want)
	}
}

func TestChromeTraceShape(t *testing.T) {
	evs := []Event{
		{Seq: 0, Kind: EvSyscallEnter, Name: "sys_open", Cycles: 10},
		{Seq: 1, Kind: EvTrap, Name: "#PF", Cycles: 20, Addr: 0x1000},
		{Seq: 2, Kind: EvSyscallExit, Name: "sys_open", Cycles: 30},
	}
	b, err := ChromeTrace(evs)
	if err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(out) != 3 {
		t.Fatalf("len = %d, want 3", len(out))
	}
	if out[0]["ph"] != "B" || out[2]["ph"] != "E" {
		t.Errorf("syscall pair phases = %v/%v, want B/E", out[0]["ph"], out[2]["ph"])
	}
	if out[1]["ph"] != "i" || out[1]["name"] != "trap:#PF" {
		t.Errorf("trap event = %v", out[1])
	}
}

func TestChromeTraceDeterministic(t *testing.T) {
	evs := []Event{{Seq: 0, Kind: EvFault, Name: "byte-flip", Addr: 0x40, Arg: 1}}
	a, err := ChromeTrace(evs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ChromeTrace(evs)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("ChromeTrace output is not deterministic")
	}
}
