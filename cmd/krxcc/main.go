// Command krxcc is the kR^X "compiler driver": it dumps the instrumented
// assembly that the krx and kaslr passes produce. Its flagship mode
// regenerates Figure 2 (the SFI O0–O3 and MPX instrumentation phases on
// nhm_uncore_msr_enable_event) and Figure 3 (the decoy prologues); it can
// also compile and dump any function of the kernel corpus under a chosen
// configuration. The mode flags combine: every selected mode runs, in the
// order -list, -figure2, -figure3, -fn.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/diversify"
	"repro/internal/figures"
	"repro/internal/kernel"
	"repro/internal/sfi"
)

func main() {
	var o options
	flag.BoolVar(&o.list, "list", false, "list the kernel corpus functions")
	flag.BoolVar(&o.fig2, "figure2", false, "regenerate Figure 2 (instrumentation phases)")
	flag.BoolVar(&o.fig3, "figure3", false, "regenerate Figure 3 (decoy prologues)")
	flag.StringVar(&o.fn, "fn", "", "dump a kernel corpus function after the passes")
	flag.StringVar(&o.mode, "xom", "sfi", "R^X mode for -fn: none|sfi|mpx")
	flag.IntVar(&o.level, "O", 3, "SFI optimization level (0-3)")
	flag.BoolVar(&o.divers, "diversify", false, "apply fine-grained KASLR for -fn")
	flag.StringVar(&o.raprot, "ra", "none", "return-address protection for -fn: none|x|d")
	flag.Int64Var(&o.seed, "seed", 1, "diversification seed")
	flag.Parse()

	if !o.list && !o.fig2 && !o.fig3 && o.fn == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "krxcc:", err)
		os.Exit(1)
	}
}

// options holds the command line: the mode flags (list, fig2, fig3, fn)
// and the configuration -fn compiles under.
type options struct {
	list, fig2, fig3 bool
	fn               string
	mode             string
	level            int
	divers           bool
	raprot           string
	seed             int64
}

// run writes every selected mode to w in a fixed order: the corpus list,
// Figure 2, Figure 3, then the -fn dump.
func run(w io.Writer, o options) error {
	if o.list {
		prog, err := kernel.BuildCorpus()
		if err != nil {
			return err
		}
		for _, f := range prog.Funcs {
			tag := ""
			if f.AccessorClone {
				tag = "  [clone]"
			} else if f.NoInstrument {
				tag = "  [asm stub]"
			}
			fmt.Fprintf(w, "%-28s %3d blocks %4d instrs%s\n", f.Name, len(f.Blocks), f.NumInstrs(), tag)
		}
	}
	if o.fig2 {
		fmt.Fprint(w, figures.Figure2())
	}
	if o.fig3 {
		fmt.Fprint(w, figures.Figure3())
	}
	if o.fn != "" {
		return dumpFunc(w, o)
	}
	return nil
}

func dumpFunc(w io.Writer, o options) error {
	prog, err := kernel.BuildCorpus()
	if err != nil {
		return err
	}
	cfg := core.Config{Seed: o.seed, Diversify: o.divers}
	switch o.mode {
	case "sfi":
		cfg.XOM = core.XOMSFI
		cfg.SFILevel = sfi.Level(o.level)
	case "mpx":
		cfg.XOM = core.XOMMPX
	case "none":
	default:
		return fmt.Errorf("unknown -xom %q", o.mode)
	}
	switch o.raprot {
	case "x":
		cfg.RAProt = diversify.RAEncrypt
	case "d":
		cfg.RAProt = diversify.RADecoy
	case "none":
	default:
		return fmt.Errorf("unknown -ra %q", o.raprot)
	}
	ins, err := core.Instrument(prog, cfg)
	if err != nil {
		return err
	}
	f := ins.Prog.Func(o.fn)
	if f == nil {
		return fmt.Errorf("no function %q in the corpus", o.fn)
	}
	fmt.Fprintf(w, "// %s under %s\n%s", o.fn, cfg.Name(), f.String())
	return nil
}
