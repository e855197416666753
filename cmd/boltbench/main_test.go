package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"bolt/internal/exper"
)

// TestCheckFlags: a negative count, an unknown or repeated -run id and a
// -defence list that names no policy, a policy off the ladder or one policy
// twice are refused before any work, and the refusal names the bad value. A
// refused -defence list leaves the installed one as it was; an accepted one
// is what the sweep then runs. A zero count means the default.
func TestCheckFlags(t *testing.T) {
	t.Cleanup(func() { exper.SetDefencePolicies("") })
	ladder := exper.DefencePolicies()
	for _, c := range []struct {
		run, defence string
		counts       map[string]int
		want         string   // "" accepts; otherwise a substring of the error
		ids          []string // the accepted run's experiment IDs (nil: all)
		policies     []string // the accepted run's defence ladder
	}{
		{"", "bogus", nil, `"bogus"`, nil, nil},
		{"defencesweep", "none,psff", nil, `"psff"`, nil, nil},
		{"defencesweep", " , ", nil, "names no policy", nil, nil},
		{"defencesweep", "none,none", nil, `"none" repeated`, nil, nil},
		{"bogus", "", nil, `unknown experiment "bogus"`, nil, nil},
		{"", "", map[string]int{"parallel": 0, "epworkers": 0, "shardworkers": 0, "fleet": 0}, "", nil, ladder},
		{"fig4,fig4", "", nil, `"fig4" repeated`, nil, nil},
		{"fleet, defencesweep", "pssf, mtd", nil, "", []string{"fleet", "defencesweep"}, []string{"pssf", "mtd"}},
		{"", "", map[string]int{"parallel": -1}, "-parallel -1", nil, nil},
		{"", "", map[string]int{"epworkers": -1}, "-epworkers -1", nil, nil},
		{"", "", map[string]int{"shardworkers": -1}, "-shardworkers -1", nil, nil},
		{"", "", map[string]int{"fleet": -1}, "-fleet -1", nil, nil},
	} {
		exper.SetDefencePolicies("")
		selected, err := checkFlags(c.run, c.defence, c.counts)
		name := fmt.Sprintf("-run %s -defence %s %v", c.run, c.defence, c.counts)
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
