// Command krxcc is the kR^X "compiler driver": it dumps the instrumented
// assembly that the krx and kaslr passes produce. Its flagship mode
// regenerates Figure 2 (the SFI O0–O3 and MPX instrumentation phases on
// nhm_uncore_msr_enable_event) and Figure 3 (the decoy prologues); it can
// also compile and dump any function of the kernel corpus under a chosen
// configuration.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/diversify"
	"repro/internal/figures"
	"repro/internal/kernel"
	"repro/internal/sfi"
)

func main() {
	var (
		list   = flag.Bool("list", false, "list the kernel corpus functions")
		fig2   = flag.Bool("figure2", false, "regenerate Figure 2 (instrumentation phases)")
		fig3   = flag.Bool("figure3", false, "regenerate Figure 3 (decoy prologues)")
		fn     = flag.String("fn", "", "dump a kernel corpus function after the passes")
		mode   = flag.String("xom", "sfi", "R^X mode for -fn: none|sfi|mpx")
		level  = flag.Int("O", 3, "SFI optimization level (0-3)")
		divers = flag.Bool("diversify", false, "apply fine-grained KASLR for -fn")
		raprot = flag.String("ra", "none", "return-address protection for -fn: none|x|d")
		seed   = flag.Int64("seed", 1, "diversification seed")
	)
	flag.Parse()

	switch {
	case *list:
		prog, err := kernel.BuildCorpus()
		if err != nil {
			fmt.Fprintln(os.Stderr, "krxcc:", err)
			os.Exit(1)
		}
		for _, f := range prog.Funcs {
			tag := ""
			if f.AccessorClone {
				tag = "  [clone]"
			} else if f.NoInstrument {
				tag = "  [asm stub]"
			}
			fmt.Printf("%-28s %3d blocks %4d instrs%s\n", f.Name, len(f.Blocks), f.NumInstrs(), tag)
		}
	case *fig2:
		fmt.Print(figures.Figure2())
	case *fig3:
		fmt.Print(figures.Figure3())
	case *fn != "":
		if err := dumpFunc(*fn, *mode, *level, *divers, *raprot, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "krxcc:", err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func dumpFunc(name, mode string, level int, divers bool, raprot string, seed int64) error {
	prog, err := kernel.BuildCorpus()
	if err != nil {
		return err
	}
	cfg := core.Config{Seed: seed, Diversify: divers}
	switch mode {
	case "sfi":
		cfg.XOM = core.XOMSFI
		cfg.SFILevel = sfi.Level(level)
	case "mpx":
		cfg.XOM = core.XOMMPX
	case "none":
	default:
		return fmt.Errorf("unknown -xom %q", mode)
	}
	switch raprot {
	case "x":
		cfg.RAProt = diversify.RAEncrypt
	case "d":
		cfg.RAProt = diversify.RADecoy
	case "none":
	default:
		return fmt.Errorf("unknown -ra %q", raprot)
	}
	ins, err := core.Instrument(prog, cfg)
	if err != nil {
		return err
	}
	f := ins.Prog.Func(name)
	if f == nil {
		return fmt.Errorf("no function %q in the corpus", name)
	}
	fmt.Printf("// %s under %s\n%s", name, cfg.Name(), f.String())
	return nil
}
