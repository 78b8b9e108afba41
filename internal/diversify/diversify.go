// Package diversify implements the "kaslr" compiler plugin: fine-grained
// KASLR for the kernel setting (§5.2).
//
// Foundational diversification (§5.2.1): every function is sliced into code
// blocks — first at call sites, then (if the permutation entropy lg(B!) is
// still below the target k) at basic blocks, and finally padded with
// phantom blocks (random int3 runs, never executed thanks to explicit jmps)
// until at least k bits of entropy are reached. The blocks are then randomly
// permuted and the CFG re-wired with connector jmps. Functions always begin
// with an entry phantom block — a single jmp to the real first code block —
// so a leaked function pointer reveals no gadgets from the entry block.
// At the section level, function order is permuted by DiversifyProgram.
//
// Return address protection (§5.2.2): either XOR encryption against a
// per-function key in the unreadable .krxkeys region, or decoy return
// addresses paired with tripwire-carrying phantom instructions.
package diversify

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/ir"
	"repro/internal/isa"
)

// RAProt selects the return-address protection scheme.
type RAProt int

// Return-address protection schemes.
const (
	RANone    RAProt = iota
	RAEncrypt        // X: xor against per-function xkey (§5.2.2)
	RADecoy          // D: decoy return addresses + tripwires (§5.2.2)
)

func (p RAProt) String() string {
	switch p {
	case RAEncrypt:
		return "X"
	case RADecoy:
		return "D"
	}
	return "none"
}

// DefaultK is the default per-function randomization entropy in bits (the
// paper's default for the kaslr plugin).
const DefaultK = 30

// EntryLabel is the label of the entry phantom block prepended to every
// diversified function.
const EntryLabel = "krx.f0"

// Config parameterizes diversification.
type Config struct {
	K      int // entropy bits per function (0 = DefaultK)
	RAProt RAProt
	// RegRand permutes each function's free scratch registers (the §5.3
	// complement against call-preceded gadget chaining).
	RegRand bool
	Rand    *rand.Rand // randomness source; nil = fixed seed (tests only)
}

func (c Config) withDefaults() Config {
	if c.K == 0 {
		c.K = DefaultK
	}
	if c.Rand == nil {
		c.Rand = rand.New(rand.NewSource(1))
	}
	return c
}

// Stats aggregates diversification statistics.
type Stats struct {
	Funcs            int
	SingleBlockFuncs int // functions that were a single basic block (≈12% in Linux)
	CallSliceEnough  int // entropy target met by call-site slicing alone
	BasicSliced      int // functions needing basic-block granularity
	Padded           int // functions needing phantom padding
	PhantomBlocks    int // phantom padding blocks added
	TripwireBlocks   int // decoy phantom-instruction carriers added
	ChunksTotal      int
	MinEntropyBits   float64 // smallest per-function entropy achieved
	CallSites        int     // instrumented call sites (decoys)
	RetSites         int     // instrumented returns (epilogues)
	RegRandFuncs     int     // functions with permuted scratch registers
}

// Add merges o into s.
func (s *Stats) Add(o Stats) {
	s.Funcs += o.Funcs
	s.SingleBlockFuncs += o.SingleBlockFuncs
	s.CallSliceEnough += o.CallSliceEnough
	s.BasicSliced += o.BasicSliced
	s.Padded += o.Padded
	s.PhantomBlocks += o.PhantomBlocks
	s.TripwireBlocks += o.TripwireBlocks
	s.ChunksTotal += o.ChunksTotal
	s.CallSites += o.CallSites
	s.RetSites += o.RetSites
	s.RegRandFuncs += o.RegRandFuncs
	if s.MinEntropyBits == 0 || (o.MinEntropyBits > 0 && o.MinEntropyBits < s.MinEntropyBits) {
		s.MinEntropyBits = o.MinEntropyBits
	}
}

// LgFactorial returns log2(n!), the permutation entropy of n blocks.
func LgFactorial(n int) float64 {
	var s float64
	for i := 2; i <= n; i++ {
		s += math.Log2(float64(i))
	}
	return s
}

// chunksNeeded returns the minimal chunk count whose permutation entropy
// reaches k bits.
func chunksNeeded(k int) int {
	n := 1
	for LgFactorial(n) < float64(k) {
		n++
	}
	return n
}

// KeySym returns the xkey symbol name for a function.
func KeySym(fn string) string { return "xkey." + fn }

// Diversify applies fine-grained KASLR to fn in place. The sfi pass (if
// any) must run first: diversification rewires and permutes whatever it is
// given, and call-site instrumentation assumes no later pass inserts code
// between the tripwire load and the call.
func Diversify(fn *ir.Function, cfg Config) (Stats, error) {
	cfg = cfg.withDefaults()
	var s Stats
	if fn.NoDiversify {
		return s, nil
	}
	if fn.BlockIndex(EntryLabel) >= 0 {
		return s, fmt.Errorf("diversify: %s already diversified", fn.Name)
	}
	s.Funcs = 1
	if len(fn.Blocks) == 1 {
		s.SingleBlockFuncs = 1
	}

	if cfg.RegRand {
		applyRegRand(fn, cfg.Rand)
		s.RegRandFuncs++
	}

	// Return-address protection first (paper §6: slicing and permutation
	// are the final step).
	switch cfg.RAProt {
	case RAEncrypt:
		applyEncryption(fn, &s)
	case RADecoy:
		applyDecoys(fn, cfg.Rand, &s)
	}

	// Slice at call sites: split blocks so every call ends its block.
	splitAtCalls(fn)

	// Materialize fallthrough edges so block order becomes irrelevant.
	materializeFallthroughs(fn)

	// Choose granularity.
	entryLabel := fn.Blocks[0].Label
	chunks := callSiteChunks(fn)
	need := chunksNeeded(cfg.K)
	switch {
	case len(chunks) >= need:
		s.CallSliceEnough = 1
	default:
		// Basic-block granularity: every block its own chunk.
		chunks = make([][]*ir.Block, len(fn.Blocks))
		for i, b := range fn.Blocks {
			chunks[i] = []*ir.Block{b}
		}
		if len(chunks) >= need {
			s.BasicSliced = 1
		} else {
			// Pad with phantom blocks: random-length int3 runs, never
			// executed (no label references them; explicit jmps connect
			// all real blocks). Each run has room for the jmp that
			// terminates it below: a cached build keeps these blocks for
			// the life of the process, and an append past len would
			// double every one of them.
			s.Padded = 1
			for i := 0; len(chunks) < need; i++ {
				n := 1 + cfg.Rand.Intn(16)
				ins := make([]isa.Instr, n, n+1)
				for j := range ins {
					ins[j] = isa.Int3()
				}
				pb := &ir.Block{Label: fmt.Sprintf("krx.pad.%d", i), Ins: ins}
				chunks = append(chunks, []*ir.Block{pb})
				s.PhantomBlocks++
			}
		}
	}
	s.ChunksTotal = len(chunks)
	ent := LgFactorial(len(chunks))
	if s.MinEntropyBits == 0 || ent < s.MinEntropyBits {
		s.MinEntropyBits = ent
	}

	// Permute the chunks.
	cfg.Rand.Shuffle(len(chunks), func(i, j int) { chunks[i], chunks[j] = chunks[j], chunks[i] })

	// Rebuild: the entry phantom block (jmp to the real entry) comes
	// first so the function symbol leaks nothing but a jmp.
	blocks := []*ir.Block{{Label: EntryLabel, Ins: []isa.Instr{isa.Jmp(entryLabel)}}}
	for _, ch := range chunks {
		blocks = append(blocks, ch...)
	}
	fn.Blocks = blocks

	// Phantom padding blocks have no terminator and may now sit last;
	// terminate them so the function stays well-formed (an int3 run is
	// its own tripwire, but Validate wants explicit control flow).
	for _, b := range fn.Blocks {
		if len(b.Ins) > 0 && b.Ins[len(b.Ins)-1].Op == isa.INT3 {
			b.Ins = append(b.Ins, isa.Jmp(entryLabel))
		}
	}
	return s, fn.Validate()
}

// splitAtCalls splits every block after each call instruction, so calls
// always terminate their code block (needed both for slicing granularity
// and so decoy tripwires and return sites are perturbed independently).
func splitAtCalls(fn *ir.Function) {
	var out []*ir.Block
	n := 0
	for _, b := range fn.Blocks {
		cur := &ir.Block{Label: b.Label}
		for _, in := range b.Ins {
			cur.Ins = append(cur.Ins, in)
			if in.IsCall() {
				out = append(out, cur)
				cur = &ir.Block{Label: fmt.Sprintf("krx.cs.%d", n)}
				n++
			}
		}
		if len(cur.Ins) > 0 {
			out = append(out, cur)
		}
		// A block ending exactly at a call leaves an empty synthesized
		// continuation: drop it — nothing references its label, and the
		// fallthrough connector will target the next original block.
	}
	fn.Blocks = out
}

// materializeFallthroughs appends an explicit jmp to every block that falls
// through to its successor, making block order permutable.
func materializeFallthroughs(fn *ir.Function) {
	for i, b := range fn.Blocks {
		if _, hasTerm := b.Terminator(); hasTerm {
			if term, _ := b.Terminator(); term.Op == isa.JCC && i+1 < len(fn.Blocks) {
				// Conditional terminator still falls through.
				b.Ins = append(b.Ins, isa.Jmp(fn.Blocks[i+1].Label))
			}
			continue
		}
		if i+1 < len(fn.Blocks) {
			b.Ins = append(b.Ins, isa.Jmp(fn.Blocks[i+1].Label))
		}
	}
}

// callSiteChunks groups consecutive blocks into chunks delimited by calls
// (a chunk is a run of blocks ending with a call-terminated block).
func callSiteChunks(fn *ir.Function) [][]*ir.Block {
	var chunks [][]*ir.Block
	var cur []*ir.Block
	for _, b := range fn.Blocks {
		cur = append(cur, b)
		if len(b.Ins) > 0 {
			last := b.Ins[len(b.Ins)-1]
			// After materializeFallthroughs a call block ends
			// [call][jmp]; check the penultimate instruction too.
			isCallEnd := last.IsCall()
			if !isCallEnd && len(b.Ins) >= 2 && last.Op == isa.JMP {
				isCallEnd = b.Ins[len(b.Ins)-2].IsCall()
			}
			if isCallEnd {
				chunks = append(chunks, cur)
				cur = nil
			}
		}
	}
	if len(cur) > 0 {
		chunks = append(chunks, cur)
	}
	return chunks
}

// DiversifyProgram diversifies every function and permutes the function
// order within the program (function permutation at the section level).
func DiversifyProgram(prog *ir.Program, cfg Config) (Stats, error) {
	cfg = cfg.withDefaults()
	var total Stats
	for _, f := range prog.Funcs {
		st, err := Diversify(f, cfg)
		if err != nil {
			return total, err
		}
		total.Add(st)
	}
	cfg.Rand.Shuffle(len(prog.Funcs), func(i, j int) {
		prog.Funcs[i], prog.Funcs[j] = prog.Funcs[j], prog.Funcs[i]
	})
	return total, nil
}
