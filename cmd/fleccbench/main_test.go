package main

import "testing"

// TestRunAllSmallAgents runs every experiment at an agent count below ten,
// where Figure 4's group sweep step used to round down to zero and loop
// forever.
func TestRunAllSmallAgents(t *testing.T) {
	if err := run("all", 5, 1, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("bogus", 0, 0, false); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}
