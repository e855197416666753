package lint

// All returns every boltlint analyzer in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		DetrandAnalyzer,
		HotallocAnalyzer,
		HotcopyAnalyzer,
		BarrierMergeAnalyzer,
	}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
