package fed

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/capplan"
	"repro/internal/machine"
)

// ParseSites builds a site list from the command-line grammar, three
// "name=spec;…" lists read by one splitter: sites gives each site's
// platform (machine.ParsePlatform, e.g. "east=systemg:16;west=dori:16"),
// in the order that is part of the federation's deterministic identity;
// carbon gives listed sites a carbon-intensity signal
// (capplan.ParseSignal, "east=0:420,2:120") and local a site-local cap
// ceiling (capplan.ParsePlan, "west=0:2000"). Both may be empty.
func ParseSites(sites, carbon, local string) ([]Site, error) {
	var out []Site
	for li, l := range []struct {
		what, list string
		set        func(s *Site, spec string) error
	}{
		{"sites", sites, func(s *Site, spec string) (err error) { s.Platform, err = machine.ParsePlatform(spec); return }},
		{"carbon", carbon, func(s *Site, spec string) (err error) { s.Carbon, err = capplan.ParseSignal(spec); return }},
		{"local", local, func(s *Site, spec string) (err error) { s.Local, err = capplan.ParsePlan(spec); return }},
	} {
		for _, part := range strings.Split(l.list, ";") {
			if part = strings.TrimSpace(part); part == "" {
				continue
			}
			name, spec, ok := strings.Cut(part, "=")
			name = strings.TrimSpace(name)
			i := len(out)
			if li == 0 { // the sites list declares; the others look up
				out = append(out, Site{Name: name})
			} else {
				i = slices.IndexFunc(out, func(s Site) bool { return s.Name == name })
			}
			err := errors.New("is not name=spec")
			if ok && i < 0 {
				err = errors.New("names no listed site")
			} else if ok {
				err = l.set(&out[i], strings.TrimSpace(spec))
			}
			if err != nil {
				return nil, fmt.Errorf("fed: %s entry %q: %w", l.what, part, err)
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("fed: sites list %q names no sites", sites)
	}
	return out, nil
}
