package core

import (
	"bytes"
	"strings"
	"testing"

	"bolt/internal/probe"
	"bolt/internal/stats"
	"bolt/internal/workload"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	d := trainedDetector(t)
	var buf bytes.Buffer
	if err := d.SaveProfiles(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadProfiles(&buf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	orig := d.Profiles()
	got := loaded.Profiles()
	if len(got) != len(orig) {
		t.Fatalf("round trip lost profiles: %d vs %d", len(got), len(orig))
	}
	for i := range orig {
		if got[i].Label != orig[i].Label || got[i].Class != orig[i].Class {
			t.Fatalf("profile %d identity changed: %+v vs %+v", i, got[i], orig[i])
		}
		for j := range orig[i].Pressure {
			if got[i].Pressure[j] != orig[i].Pressure[j] {
				t.Fatalf("profile %d pressure %d changed", i, j)
			}
		}
	}

	// The reloaded detector must detect identically.
	adv := probe.NewAdversary("adv", 4, probe.Config{}, stats.NewRNG(77))
	s := hostWith(t, adv, workload.VictimSpecs(300, 1)[0])
	a := d.Detect(s, adv, 0, 1)
	adv2 := probe.NewAdversary("adv", 4, probe.Config{}, stats.NewRNG(77))
	s2 := hostWith(t, adv2, workload.VictimSpecs(300, 1)[0])
	b := loaded.Detect(s2, adv2, 0, 1)
	if a.Result.Best().Label != b.Result.Best().Label {
		t.Fatalf("reloaded detector diverged: %q vs %q",
			a.Result.Best().Label, b.Result.Best().Label)
	}
}

func TestLoadProfilesRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"not json",
		`{"version": 99, "profiles": [{"label":"x","class":"x","pressure":[1,2,3,4,5,6,7,8,9,10]}]}`,
		`{"version": 1, "profiles": []}`,
		`{"version": 1, "profiles": [{"label":"","class":"x","pressure":[1,2,3,4,5,6,7,8,9,10]}]}`,
		`{"version": 1, "profiles": [{"label":"x","class":"x","pressure":[1,2,3]}]}`,
	}
	for i, c := range cases {
		if _, err := LoadProfiles(strings.NewReader(c), Config{}); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

// TestLoadProfilesRejectsBadPressure: non-finite or out-of-range pressure
// values would poison the SVD and every downstream similarity score, so each
// must be rejected with a descriptive error naming the offending profile.
func TestLoadProfilesRejectsBadPressure(t *testing.T) {
	profile := func(pressure string) string {
		return `{"version": 1, "profiles": [{"label":"x:y","class":"x","pressure":` + pressure + `}]}`
	}
	cases := []struct {
		name, doc string
	}{
		{"negative", profile(`[-1,2,3,4,5,6,7,8,9,10]`)},
		{"above-100", profile(`[1,2,3,4,5,6,7,8,9,100.5]`)},
		{"huge", profile(`[1,2,3,4,5,6,7,8,9,1e300]`)},
		// encoding/json rejects bare NaN/Infinity literals at the decode
		// step; both layers must refuse the file either way.
		{"nan-literal", profile(`[NaN,2,3,4,5,6,7,8,9,10]`)},
		{"inf-literal", profile(`[Infinity,2,3,4,5,6,7,8,9,10]`)},
	}
	for _, c := range cases {
		if _, err := LoadProfiles(strings.NewReader(c.doc), Config{}); err == nil {
			t.Errorf("%s: bad pressure accepted", c.name)
		} else if !strings.Contains(err.Error(), "core:") {
			t.Errorf("%s: error %q not descriptive", c.name, err)
		}
	}
}

// TestLoadProfilesBoundaryPressureAccepted: exactly 0 and exactly 100 are
// legal pressures and must load.
func TestLoadProfilesBoundaryPressureAccepted(t *testing.T) {
	doc := `{"version": 1, "profiles": [{"label":"x:y","class":"x","pressure":[0,100,0,100,0,100,0,100,0,100]}]}`
	if _, err := LoadProfiles(strings.NewReader(doc), Config{}); err != nil {
		t.Fatalf("boundary pressures rejected: %v", err)
	}
}
