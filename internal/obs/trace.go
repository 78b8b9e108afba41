package obs

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/cpu"
)

// EventKind classifies trace events.
type EventKind uint8

// Trace event kinds.
const (
	EvTrap         EventKind = iota // exception delivered by the CPU
	EvSyscallEnter                  // kernel.Syscall round trip begins
	EvSyscallExit                   // kernel.Syscall round trip ends
	EvSnapshot                      // kernel.Snapshot taken
	EvRestore                       // kernel.Restore rewound the machine
	EvFault                         // injected fault (internal/inject)
)

func (k EventKind) String() string {
	switch k {
	case EvTrap:
		return "trap"
	case EvSyscallEnter:
		return "syscall-enter"
	case EvSyscallExit:
		return "syscall-exit"
	case EvSnapshot:
		return "snapshot"
	case EvRestore:
		return "restore"
	case EvFault:
		return "fault"
	}
	return "?"
}

// Event is one trace record. Timestamps are emulated, not host: the CPU's
// cumulative instruction and cycle counters at emission. Two runs of the
// same workload therefore produce identical event streams — the property
// the replay-comparison and worker-count-invariance tests assert.
type Event struct {
	Seq    uint64 // per-tracer emission index (rewritten on merge)
	Instrs uint64 // CPU.Instrs at emission
	Cycles uint64 // CPU.Cycles at emission
	Kind   EventKind
	Name   string // trap kind, syscall name, fault class
	Addr   uint64 // faulting/affected address (0 when not applicable)
	Arg    uint64 // kind-specific payload (syscall nr, return value, ...)
}

func (e Event) String() string {
	return fmt.Sprintf("#%d i=%d c=%d %s %s addr=%#x arg=%#x",
		e.Seq, e.Instrs, e.Cycles, e.Kind, e.Name, e.Addr, e.Arg)
}

// DefaultTraceCap is the ring capacity when NewTracer is given none.
const DefaultTraceCap = 4096

// Tracer is a bounded ring-buffer event recorder. When the ring is full the
// oldest event is overwritten and Dropped is incremented — tracing is
// observability, never backpressure. It implements cpu.TrapProbe, so
// cpu.AddTrapProbe(t) (which Attach does) captures every delivered
// exception without paying a per-instruction callback.
type Tracer struct {
	c       *cpu.CPU
	buf     []Event
	start   int
	n       int
	seq     uint64
	dropped uint64
}

// NewTracer creates a tracer. capacity <= 0 uses DefaultTraceCap. Events
// are unstamped until the tracer is attached to a CPU.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Tracer{buf: make([]Event, capacity)}
}

// Attach binds the tracer's timestamp source to c and registers it for
// trap-delivery events.
func (t *Tracer) Attach(c *cpu.CPU) {
	t.c = c
	c.AddTrapProbe(t)
}

// Detach unregisters the tracer from its CPU.
func (t *Tracer) Detach() {
	if t.c != nil {
		t.c.RemoveTrapProbe(t)
	}
}

// Emit records one event, stamped with the CPU's current counters.
func (t *Tracer) Emit(kind EventKind, name string, addr, arg uint64) {
	ev := Event{
		Seq:  t.seq,
		Kind: kind,
		Name: name,
		Addr: addr,
		Arg:  arg,
	}
	if t.c != nil {
		ev.Instrs, ev.Cycles = t.c.Instrs, t.c.Cycles
	}
	t.seq++
	if t.n < len(t.buf) {
		t.buf[(t.start+t.n)%len(t.buf)] = ev
		t.n++
		return
	}
	t.buf[t.start] = ev
	t.start = (t.start + 1) % len(t.buf)
	t.dropped++
}

// OnTrap implements cpu.TrapProbe.
func (t *Tracer) OnTrap(tr *cpu.Trap, cycles uint64) {
	t.Emit(EvTrap, tr.Kind.String(), tr.Addr, tr.RIP)
}

// Events returns the buffered events, oldest first (a copy).
func (t *Tracer) Events() []Event {
	out := make([]Event, 0, t.n)
	for i := 0; i < t.n; i++ {
		out = append(out, t.buf[(t.start+i)%len(t.buf)])
	}
	return out
}

// Take returns the buffered events and clears the ring (sequence numbers
// restart at zero — per-iteration capture uses this so every iteration's
// stream is self-contained and scheduling-independent).
func (t *Tracer) Take() []Event {
	out := t.Events()
	t.Reset()
	return out
}

// Reset clears the ring, the sequence counter, and the drop counter.
func (t *Tracer) Reset() {
	t.start, t.n, t.seq, t.dropped = 0, 0, 0, 0
}

// Dropped reports how many events were overwritten since the last Reset.
func (t *Tracer) Dropped() uint64 { return t.dropped }

// Len reports the number of buffered events.
func (t *Tracer) Len() int { return t.n }

// Renumber rewrites Seq over a merged event slice — used after folding
// per-iteration streams into one campaign trace in canonical order.
func Renumber(events []Event) {
	for i := range events {
		events[i].Seq = uint64(i)
	}
}

// TraceText renders events one per line — the deterministic format the
// replay-comparison tests diff byte-for-byte.
func TraceText(events []Event) string {
	var sb strings.Builder
	for _, e := range events {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// chromeEvent is one Chrome trace-event record (the about://tracing and
// Perfetto JSON array format). Emulated cycles stand in for microseconds.
type chromeEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	Ts    uint64         `json:"ts"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// ChromeTrace renders events as Chrome trace-event JSON: syscall
// enter/exit pairs become duration begin/end slices, everything else an
// instant event. Load the output in about://tracing or Perfetto.
func ChromeTrace(events []Event) ([]byte, error) {
	out := make([]chromeEvent, 0, len(events))
	for _, e := range events {
		ce := chromeEvent{
			Name: e.Name,
			Ts:   e.Cycles,
			Pid:  1,
			Tid:  1,
			Args: map[string]any{"seq": e.Seq, "instrs": e.Instrs, "addr": e.Addr, "arg": e.Arg},
		}
		switch e.Kind {
		case EvSyscallEnter:
			ce.Ph = "B"
		case EvSyscallExit:
			ce.Ph = "E"
		default:
			ce.Ph = "i"
			ce.Scope = "t"
			ce.Name = e.Kind.String() + ":" + e.Name
		}
		out = append(out, ce)
	}
	return json.MarshalIndent(out, "", " ")
}
