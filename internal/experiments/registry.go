package experiments

import (
	"fmt"
	"sort"
)

// Runner produces the table(s) of one experiment.
type Runner func(cfg Config) ([]*Table, error)

// wrap1 adapts a single-table experiment to Runner.
func wrap1(f func(Config) (*Table, error)) Runner {
	return func(cfg Config) ([]*Table, error) {
		t, err := f(cfg)
		if err != nil {
			return nil, err
		}
		return []*Table{t}, nil
	}
}

// registry maps experiment IDs to runners.
var registry = map[string]Runner{
	"example1": wrap1(example1),
	"fig6b":    wrap1(fig6b),
	"fig7":     wrap1(fig7),
	"fig8":     wrap1(fig8),
	"fig9a":    wrap1(fig9a),
	"fig9b":    wrap1(fig9b),
	"fig10":    wrap1(fig10),
	"fig11ab": func(cfg Config) ([]*Table, error) {
		a, b, err := fig11ab(cfg)
		if err != nil {
			return nil, err
		}
		return []*Table{a, b}, nil
	},
	"fig11c":   wrap1(fig11c),
	"fig11d":   wrap1(fig11d),
	"linkload": wrap1(linkLoad),
	"musweep":  wrap1(muSweep),
}

// IDs lists the available experiment identifiers in sorted order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by ID.
func Run(id string, cfg Config) ([]*Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (available: %v)", id, IDs())
	}
	return r(cfg)
}
