package main

import "testing"

// TestCheckRequest pins the flag values the command accepts before it
// generates the dataset: the paper's tables 1-4, figures 1-2 and the
// listed ablations, with 0 and "" requesting nothing.
func TestCheckRequest(t *testing.T) {
	cases := []struct {
		table, figure int
		ablation      string
		ok            bool
	}{
		{0, 0, "", true},
		{1, 0, "", true},
		{4, 0, "", true},
		{0, 1, "", true},
		{0, 2, "", true},
		{0, 0, "depth", true},
		{0, 0, "latency", true},
		{3, 2, "voting", true},
		{5, 0, "", false},
		{-1, 0, "", false},
		{0, 3, "", false},
		{0, -2, "", false},
		{0, 0, "bogus", false},
		{0, 0, "Depth", false},
		{2, 1, "depth,interval", false},
	}
	for _, c := range cases {
		err := checkRequest(c.table, c.figure, c.ablation)
		if (err == nil) != c.ok {
			t.Errorf("checkRequest(%d, %d, %q) = %v, want ok %v", c.table, c.figure, c.ablation, err, c.ok)
		}
	}
	for _, a := range ablations {
		if err := checkRequest(0, 0, a); err != nil {
			t.Errorf("ablation %q rejected: %v", a, err)
		}
	}
}
