package main

// defaultSeed is the seed of a run that names none.
const defaultSeed = 1

// The input digests of the default seed at full size. BENCHMARK.json has
// no field for them, so they are pinned here; TestPinnedInputs fails when
// internal/synth starts drawing different requests for the same seed, and
// -compare refuses to set runs with different digests side by side.
const (
	pinnedServingDigest = "120a689f1d0c471b8bb8816a284037a3002f887ba3014307efc8dff57ca0926c"
	pinnedOfflineDigest = "552a4907c91df7e2c12aa688f4d1373a2eae66c1e5b0112106617e4d232d5a11"
)
