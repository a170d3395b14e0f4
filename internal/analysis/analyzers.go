package analysis

// All is the simlint suite in reporting order: the analyzers cmd/simlint
// runs over every package.
var All = []*Analyzer{
	MapOrder, GlobalRand, CheckpointCov, MemoKey,
	LockField, ObsPure, ClockTaint,
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All {
		if a.Name == name {
			return a
		}
	}
	return nil
}
