package engine

// Run is RunWithDomains without the per-domain breakdown.
func Run(top Topology, cfg Config, program func(ctx *Ctx)) (*Stats, error) {
	st, _, err := RunWithDomains(top, cfg, program)
	return st, err
}
