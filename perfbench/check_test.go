package main

import (
	"errors"
	"testing"
)

func TestDigestMismatchCountsTowardErrorRate(t *testing.T) {
	c := &checker{want: "aaaa"}
	if err := c.record(outcome{digest: "aaaa"}, nil); err != nil {
		t.Fatalf("matching digest failed: %v", err)
	}
	if err := c.record(outcome{digest: "bbbb"}, nil); err == nil {
		t.Fatal("mismatched digest passed")
	}
	if err := c.record(outcome{}, errors.New("replay failed")); err == nil {
		t.Fatal("iteration error passed")
	}
	if c.attempted != 3 || c.failed != 2 {
		t.Errorf("attempted %d, failed %d; want 3 and 2", c.attempted, c.failed)
	}
	if got, want := c.rate(), 2.0/3; got != want {
		t.Errorf("error rate %v, want %v", got, want)
	}
}

func TestUnrecordedSeedMustRepeatFirstDigest(t *testing.T) {
	c := newChecker("ycsb-stream", 424242)
	if err := c.record(outcome{digest: "first"}, nil); err != nil {
		t.Fatalf("first iteration at an unrecorded seed failed: %v", err)
	}
	if err := c.record(outcome{digest: "second"}, nil); err == nil {
		t.Error("an iteration whose digest differs from the first passed")
	}
}

// TestRecordedDigestsDiffer keeps the output check from passing
// vacuously: each seeded workload has a digest at both recorded seeds, and
// the two differ, so the seed reaches the simulated inputs.
func TestRecordedDigestsDiffer(t *testing.T) {
	for w, bySeed := range knownDigests {
		d1, d2 := bySeed[defaultSeed], bySeed[heldOutSeed]
		if len(d1) != 64 || len(d2) != 64 {
			t.Errorf("%s: digests at seeds %d and %d are %q and %q, want two SHA-256s", w, defaultSeed, heldOutSeed, d1, d2)
		}
		if d1 == d2 {
			t.Errorf("%s: seeds %d and %d give the same digest %s", w, defaultSeed, heldOutSeed, d1)
		}
	}
	if len(suiteDigest) != 64 {
		t.Errorf("paper-suite digest %q, want a SHA-256", suiteDigest)
	}
}
