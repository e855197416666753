package main

import (
	"reflect"
	"strings"
	"testing"

	"bolt/internal/exper"
)

// TestCheckFlags: an unknown or repeated -run id and a -defence list that
// names no policy, a policy off the ladder or one policy twice are refused
// before any work, and the refusal names the bad value. A refused -defence
// list leaves the installed one as it was; an accepted one is what the
// sweep then runs.
func TestCheckFlags(t *testing.T) {
	t.Cleanup(func() { exper.SetDefencePolicies("") })
	ladder := exper.DefencePolicies()
	for _, c := range []struct {
		run, defence string
		want         string   // "" accepts; otherwise a substring of the error
		ids          []string // the accepted run's experiment IDs (nil: all)
		policies     []string // the accepted run's defence ladder
	}{
		{"", "bogus", `"bogus"`, nil, nil},
		{"defencesweep", "none,psff", `"psff"`, nil, nil},
		{"defencesweep", " , ", "names no policy", nil, nil},
		{"defencesweep", "none,none", `"none" repeated`, nil, nil},
		{"bogus", "", `unknown experiment "bogus"`, nil, nil},
		{"", "", "", nil, ladder},
		{"fig4,fig4", "", `"fig4" repeated`, nil, nil},
		{"fleet, defencesweep", "pssf, mtd", "", []string{"fleet", "defencesweep"}, []string{"pssf", "mtd"}},
	} {
		exper.SetDefencePolicies("")
		selected, err := checkFlags(c.run, c.defence)
		name := "-run " + c.run + " -defence " + c.defence
		if c.want != "" {
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: error %v, want one naming %s", name, err, c.want)
			}
			if got := exper.DefencePolicies(); !reflect.DeepEqual(got, ladder) {
				t.Errorf("%s: refused list installed %v", name, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s refused: %v", name, err)
			continue
		}
		want := c.ids
		if want == nil {
			want = ids(exper.All())
		}
		if got := ids(selected); !reflect.DeepEqual(got, want) {
			t.Errorf("%s selected %v, want %v", name, got, want)
		}
		if got := exper.DefencePolicies(); !reflect.DeepEqual(got, c.policies) {
			t.Errorf("%s: defence ladder %v, want %v", name, got, c.policies)
		}
	}
}

// ids lists the experiments' IDs in order.
func ids(exps []exper.Experiment) []string {
	var out []string
	for _, e := range exps {
		out = append(out, e.ID)
	}
	return out
}
