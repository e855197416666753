package study

import (
	"testing"

	"bolt/internal/sim"
)

func TestTypesShape(t *testing.T) {
	types := Types()
	if len(types) != 53 {
		t.Fatalf("got %d types, want 53", len(types))
	}
	seen := map[int]bool{}
	for i, typ := range types {
		if typ.ID != i+1 {
			t.Fatalf("type %d has ID %d; IDs must be sequential", i, typ.ID)
		}
		if seen[typ.ID] {
			t.Fatalf("duplicate ID %d", typ.ID)
		}
		seen[typ.ID] = true
		if typ.Weight <= 0 {
			t.Fatalf("type %s has non-positive weight", typ.Name)
		}
		if typ.Make == nil {
			t.Fatalf("type %s has no generator", typ.Name)
		}
	}
}

func TestTypesMixOfTrainable(t *testing.T) {
	trainable := 0
	for _, typ := range Types() {
		if typ.Trainable {
			trainable++
		}
	}
	if trainable < 8 || trainable > 20 {
		t.Fatalf("trainable type count %d implausible", trainable)
	}
}

func TestGenerateDefaults(t *testing.T) {
	s := Generate(Config{Seed: 1})
	if len(s.Jobs) != 436 {
		t.Fatalf("got %d jobs, want 436", len(s.Jobs))
	}
	if s.Config.Users != 20 || s.Config.Instances != 200 {
		t.Fatalf("defaults wrong: %+v", s.Config)
	}
	users := map[int]bool{}
	for _, j := range s.Jobs {
		if j.User < 0 || j.User >= 20 {
			t.Fatalf("job user %d out of range", j.User)
		}
		users[j.User] = true
		if j.VCPUs < 1 || j.VCPUs > 8 {
			t.Fatalf("job vCPUs %d out of range", j.VCPUs)
		}
		if j.Start < 0 || j.Start >= s.Config.Span {
			t.Fatalf("job start %d outside span", j.Start)
		}
		if j.Duration <= 0 {
			t.Fatal("job duration must be positive")
		}
		if j.Pattern == nil {
			t.Fatal("job needs a load pattern")
		}
	}
	if len(users) != 20 {
		t.Fatalf("only %d users submitted jobs", len(users))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Seed: 7})
	b := Generate(Config{Seed: 7})
	if len(a.Jobs) != len(b.Jobs) {
		t.Fatal("same seed, different job counts")
	}
	for i := range a.Jobs {
		if a.Jobs[i].Spec.Label != b.Jobs[i].Spec.Label || a.Jobs[i].Start != b.Jobs[i].Start {
			t.Fatalf("same seed diverged at job %d", i)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a := Generate(Config{Seed: 1})
	b := Generate(Config{Seed: 2})
	same := 0
	for i := range a.Jobs {
		if a.Jobs[i].Type.ID == b.Jobs[i].Type.ID {
			same++
		}
	}
	if same == len(a.Jobs) {
		t.Fatal("different seeds produced identical type sequences")
	}
}

func TestOccurrencePDF(t *testing.T) {
	s := Generate(Config{Seed: 3})
	pdf := s.OccurrencePDF()
	total := 0
	for _, k := range pdf.Keys() {
		total += pdf.Count(k)
	}
	if total != len(s.Jobs) {
		t.Fatal("PDF total mismatch")
	}
	// Analytics frameworks dominate the study, as in Fig. 11.
	if pdf.Count("01:hadoop")+pdf.Count("02:spark") < 30 {
		t.Fatalf("hadoop+spark occurrences too low: %d",
			pdf.Count("01:hadoop")+pdf.Count("02:spark"))
	}
}

func TestTrainableJobsFraction(t *testing.T) {
	s := Generate(Config{Seed: 4})
	trainable := 0
	for _, j := range s.Jobs {
		if j.Type.Trainable {
			trainable++
		}
	}
	frac := float64(trainable) / float64(len(s.Jobs))
	// The paper labels 277/436 ≈ 64%; the trainable fraction must make
	// that achievable but not trivial.
	if frac < 0.35 || frac > 0.9 {
		t.Fatalf("trainable fraction %.2f implausible", frac)
	}
}

func TestJobPressuresInRange(t *testing.T) {
	s := Generate(Config{Seed: 5, Jobs: 100})
	for _, j := range s.Jobs {
		for _, r := range sim.AllResources() {
			p := j.Spec.Base.Get(r)
			if p < 0 || p > 100 {
				t.Fatalf("job %s pressure %v out of range on %v", j.Spec.Label, p, r)
			}
		}
	}
}

func TestSmallStudyConfig(t *testing.T) {
	s := Generate(Config{Seed: 6, Users: 3, Jobs: 20, Instances: 5, Span: 1000})
	if len(s.Jobs) != 20 || s.Config.Users != 3 {
		t.Fatal("explicit config ignored")
	}
}
