package main

// references are the SHA-256 digests of each workload's output at its
// default seed: the krxfuzz report of `krxfuzz -seed 42 -iters 1024`
// (with -vanilla -no-inject for fuzz-vanilla), the Table 1 + Table 2 text
// `krxbench -table1 -table2` prints, and the text `krxattack -seed 101`
// prints.
var references = map[string]string{
	"fuzz-sfix":     "53211b8eda83e7948b15ad593690cfaa440d44663d56f45584dcc224236dbe58",
	"fuzz-vanilla":  "1c1bc77445bd22a2f5d0470e83ea3d58b9e5ca495247856a6a7ee8876347bf76",
	"table-sweep":   "d3d431f4fa2fde7ebace199fc108ca136cc20cca54fe1358d60f5ca118401b51",
	"attack-ladder": "1ed2df9a71911077c4a1062f49aa5f360423dd395915d553168fc62f4755a3ed",
}

// ladderOutcomes is the §7.3 security evaluation as the ladder must
// reproduce it for any seed: which attack succeeds against which target,
// and the stage where each one ends.
var ladderOutcomes = []string{
	"Vanilla/direct-rop: SUCCEEDED at payload-delivery",
	"Vanilla/jit-rop: SUCCEEDED at exploitation",
	"Vanilla/indirect-jit-rop: SUCCEEDED at gadget-use",
	"X/direct-rop: FAILED at offline-prep",
	"X/jit-rop: SUCCEEDED at exploitation",
	"X/indirect-jit-rop: FAILED at gadget-use",
	"X/substitution: SUCCEEDED at ciphertext-swap",
	"X/race-hazard: SUCCEEDED at window-probe",
	"SFI+FG/direct-rop: FAILED at payload-delivery",
	"SFI+FG/jit-rop: FAILED at code-harvest",
	"SFI+FG/indirect-jit-rop: SUCCEEDED at gadget-use",
	"SFI+X/direct-rop: FAILED at offline-prep",
	"SFI+X/jit-rop: FAILED at code-harvest",
	"SFI+X/indirect-jit-rop: FAILED at gadget-use",
	"SFI+X/substitution: SUCCEEDED at ciphertext-swap",
	"SFI+X/race-hazard: SUCCEEDED at window-probe",
	"SFI+D/direct-rop: FAILED at offline-prep",
	"SFI+D/jit-rop: FAILED at code-harvest",
	"SFI+D/indirect-jit-rop: FAILED at gadget-use",
	"MPX+X/direct-rop: FAILED at offline-prep",
	"MPX+X/jit-rop: FAILED at code-harvest",
	"MPX+X/indirect-jit-rop: FAILED at gadget-use",
	"MPX+X/substitution: SUCCEEDED at ciphertext-swap",
	"MPX+X/race-hazard: SUCCEEDED at window-probe",
	"no-SMEP/ret2usr: SUCCEEDED at hijack",
	"SMEP/ret2usr: FAILED at hijack",
	"survival: diversified under 5%",
	"survival: vanilla all",
}
