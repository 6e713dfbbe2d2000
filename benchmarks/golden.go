package main

import (
	_ "embed"
	"encoding/json"
	"sync"
)

//go:embed golden/golden.json
var goldenJSON []byte

// goldenSet holds the expected outputs of the sim workloads: Fig. 1c result
// fingerprints by study sub-seed (the study set is pinned, so they hold for
// every --seed), and the first storm's finish-time hash by --seed (recorded
// for the default seed). Regenerate with -update-golden after a change that
// is meant to alter results.
type goldenSet struct {
	Fig1c map[string]string `json:"fig1c"`
	Storm map[string]string `json:"storm"`
}

var loadGolden = sync.OnceValue(func() goldenSet {
	var g goldenSet
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic("benchmarks: golden/golden.json: " + err.Error())
	}
	return g
})
