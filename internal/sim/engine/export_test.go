package engine

// runTicked is Run that also reports how many core-cycles the cycle loop
// actually ticked; the rest of a result's Cycles were slept through and
// charged in bulk.
func runTicked(cfg RunConfig, threads []Thread) (*Result, uint64, error) {
	res, cores, err := run(cfg, threads)
	var ticks uint64
	for _, co := range cores {
		ticks += co.ticks
	}
	return res, ticks, err
}
