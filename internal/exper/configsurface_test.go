package exper

import (
	"reflect"
	"strings"
	"testing"

	"bolt/internal/core"
	"bolt/internal/fault"
	"bolt/internal/mining"
	"bolt/internal/probe"
	"bolt/internal/study"
)

// TestConfigSurface pins the exported field set of the config structs whose
// single-valued fields were folded into constants (DESIGN.md,
// "Configuration surface"). Every field is one more dimension tests and
// benchmarks have to cover, so adding one must show up as a diff here, next
// to the two callers that need different values.
func TestConfigSurface(t *testing.T) {
	for _, tc := range []struct {
		cfg  any
		want string
	}{
		{probe.Config{}, "NoiseSD Faults"},
		{fault.Config{}, "Rate DisableDropout DisableCorruption DisableChurn DisableProbeFailure"},
		{core.Config{}, "Recommender MaxIterations ExtraBench DisableShutter DisableMRC"},
		{mining.CompletionConfig{}, "Rank Seed FixedFoldIn"},
		{study.Config{}, "Users Jobs Instances Span Seed"},
		{ControlledConfig{}, "Seed Servers Victims Scheduler ServerCfg ProbeCfg Detector"},
	} {
		typ := reflect.TypeOf(tc.cfg)
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if g := strings.Join(got, " "); g != tc.want {
			t.Errorf("%v fields = %q, want %q", typ, g, tc.want)
		}
	}
}
