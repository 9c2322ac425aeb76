package main

import "fmt"

// knownDigests pins the stats-dump SHA-256 of each seeded workload at the
// default and held-out seeds. A change that moves any simulated number
// moves the digest, and the iteration counts as failed.
var knownDigests = map[string]map[uint64]string{
	"ycsb-stream": {
		defaultSeed: "ef515accac5796d6f9b88dfa2d9a2c8e3093a4e1aa39d250dc99bdcb6965cc4b",
		heldOutSeed: "8d3b605ff13655c8c0d516f111ab63748019dd44da2e2948d5d7076cfdf1ea64",
	},
	"pagerank-persist": {
		defaultSeed: "4e85d4b87f904c8a66bb4c24d8aedfadb139f2cae2de629bb57351097b007dce",
		heldOutSeed: "15f505838c6207929c57c8c9a6fac0f1e2ef59a8a249caa0f3920bc3af882527",
	},
	"traffic-32t": {
		defaultSeed: "1ef7dda0e914d78c7c4172f2e5b1e8a5bc51437ef1024bdd4cd320571c52d017",
		heldOutSeed: "4ebc23a6bbcf06cc8b6b9384d2d779f361d4eaec73ffd73efc52d90d2bd81113",
	},
}

// suiteDigest pins the SHA-256 of paper-suite's CSV. The suite runs the
// paper's fixed inputs, so it is the same at every seed.
const suiteDigest = "adf7ec6105252e2c696020154a40ea6634a9361bd8e79cbc99cd5156ee8f7b61"

func wantDigest(workload string, seed uint64) string {
	if workload == "paper-suite" {
		return suiteDigest
	}
	return knownDigests[workload][seed]
}

// checker tallies attempted and failed iterations. An iteration fails on
// an error (including a suite CheckShape failure) or on a digest that
// differs from the recorded one; at a seed with no recorded digest, every
// iteration must match the first successful one.
type checker struct {
	want              string
	attempted, failed int
}

func newChecker(workload string, seed uint64) *checker {
	return &checker{want: wantDigest(workload, seed)}
}

// record tallies one iteration and returns why it failed, if it did.
func (c *checker) record(out outcome, err error) error {
	c.attempted++
	if err == nil {
		switch {
		case c.want == "":
			c.want = out.digest
		case out.digest != c.want:
			err = fmt.Errorf("output digest %s, want %s", out.digest, c.want)
		}
	}
	if err != nil {
		c.failed++
	}
	return err
}

// rate is error_rate: failed iterations over attempted ones.
func (c *checker) rate() float64 {
	if c.attempted == 0 {
		return 0
	}
	return float64(c.failed) / float64(c.attempted)
}
