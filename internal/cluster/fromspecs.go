package cluster

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// FromSpecs parses a node-inventory file: one capacity vector per line,
// whitespace-separated, in units of the reference node, with an optional
// trailing cost= field giving the node's cost rate. The first two values
// of every line are CPU and memory; further values are additional rigid
// dimensions (GPU, ...). An optional "# dims:" comment names the
// dimensions; other comment lines (#) and blank lines are ignored.
//
//	# dims: cpu mem gpu
//	2 2 0 cost=3
//	1 1 1
//	1 1 1 cost=0.5
//
// Every line must declare the same number of dimensions. Parse errors name
// the offending line. The returned dimension names are nil when no dims
// header is present (callers fall back to the canonical names); real
// cluster inventories are wired into the CLIs through the -resources @file
// flag, which registers the parsed inventory as a node-mix profile
// (RegisterProfile).
func FromSpecs(r io.Reader) (dims []string, specs []NodeSpec, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			meta := strings.TrimSpace(strings.TrimPrefix(line, "#"))
			if strings.HasPrefix(meta, "dims:") {
				names := strings.Fields(strings.TrimPrefix(meta, "dims:"))
				if len(names) < MinDims {
					return nil, nil, fmt.Errorf("cluster: line %d: %d dimension names, want at least %d (cpu, mem)", lineno, len(names), MinDims)
				}
				if names[DimCPU] != "cpu" || names[DimMem] != "mem" {
					return nil, nil, fmt.Errorf("cluster: line %d: dimensions must start with \"cpu\", \"mem\", got %v", lineno, names)
				}
				dims = names
			}
			continue
		}
		spec := NodeSpec{}
		sawCost := false
		for _, field := range strings.Fields(line) {
			if cv, ok := strings.CutPrefix(field, "cost="); ok {
				if sawCost {
					return nil, nil, fmt.Errorf("cluster: line %d: duplicate cost= field", lineno)
				}
				cost, perr := strconv.ParseFloat(cv, 64)
				if perr != nil {
					return nil, nil, fmt.Errorf("cluster: line %d: bad cost %q: %v", lineno, cv, perr)
				}
				spec.Cost = cost
				sawCost = true
				continue
			}
			if sawCost {
				return nil, nil, fmt.Errorf("cluster: line %d: capacity %q after the cost= field", lineno, field)
			}
			v, perr := strconv.ParseFloat(field, 64)
			if perr != nil {
				return nil, nil, fmt.Errorf("cluster: line %d: bad capacity %q: %v", lineno, field, perr)
			}
			spec.Caps = append(spec.Caps, v)
		}
		if len(spec.Caps) < MinDims {
			return nil, nil, fmt.Errorf("cluster: line %d: %d capacities, want at least %d (cpu, mem)", lineno, len(spec.Caps), MinDims)
		}
		if len(specs) > 0 && len(spec.Caps) != specs[0].Dims() {
			return nil, nil, fmt.Errorf("cluster: line %d: %d dimensions, previous nodes have %d", lineno, len(spec.Caps), specs[0].Dims())
		}
		if err := spec.check(CanonicalDimName); err != nil {
			return nil, nil, fmt.Errorf("cluster: line %d: %w", lineno, err)
		}
		specs = append(specs, spec)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("cluster: %v", err)
	}
	if len(specs) == 0 {
		return nil, nil, fmt.Errorf("cluster: inventory declares no nodes")
	}
	if dims != nil && len(dims) != specs[0].Dims() {
		return nil, nil, fmt.Errorf("cluster: dims header names %d dimensions but nodes have %d", len(dims), specs[0].Dims())
	}
	return dims, specs, nil
}
