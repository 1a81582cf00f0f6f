package main

import (
	_ "embed"
	"encoding/json"
)

// defaultSeed is the workload seed whose DES results are stored in
// expected.json; it runs the committed scenario seeds unchanged.
const defaultSeed = 1

//go:embed expected.json
var expectedJSON []byte

// expectedFor returns the stored per-run results of a DES workload at
// a seed, or nil when none are stored (then the runs are checked by
// reproducing their first pass).
func expectedFor(workload string, seed int64) map[string]runSig {
	if seed != defaultSeed {
		return nil
	}
	var all map[string]map[string]runSig
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		panic("perfbench: expected.json: " + err.Error()) // embedded at build time
	}
	return all[workload]
}
