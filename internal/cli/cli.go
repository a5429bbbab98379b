// Package cli implements the query dispatch of the aquila command: it maps
// query strings ("connected", "num-scc", "in-largest-cc=7", ...) onto
// Snapshot calls — the command-line face of the paper's query
// classification (§3).
package cli

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"aquila"
	"aquila/internal/plan"
	"aquila/internal/stats"
)

// Queries lists the recognized query names (parameterized ones shown with
// their syntax).
var Queries = []string{
	"connected", "connected=<u>,<v>", "strongly-connected",
	"num-cc", "num-scc", "num-bicc", "num-bgcc",
	"largest-cc", "largest-scc", "in-largest-cc=<v>",
	"aps", "bridges", "histogram", "stats",
	"cc-policy", "scc-policy", "bicc-policy",
}

// Answer runs one query against a snapshot and returns the printable
// answer. The snapshot is an engine's (eng.Acquire()) or a server's: a
// served snapshot answers through the admission gate, and requests it sheds
// surface as an "overloaded, retry" error that still matches
// aquila.ErrOverloaded under errors.Is.
func Answer(ctx context.Context, sn *aquila.Snapshot, query string) (string, error) {
	out, err := answer(ctx, sn, query)
	if err != nil {
		return "", serveErr(err)
	}
	return out, nil
}

// serveErr keeps shed load's errors.Is(err, aquila.ErrOverloaded)
// classification — the one the HTTP front-end turns into 429 Too Many
// Requests — but makes it read as an explicit retry notice.
func serveErr(err error) error {
	if errors.Is(err, aquila.ErrOverloaded) {
		return fmt.Errorf("overloaded, retry: %w", err)
	}
	return err
}

func answer(ctx context.Context, sn *aquila.Snapshot, query string) (string, error) {
	n := sn.NumVertices()
	switch {
	case query == "connected":
		return show(sn.IsConnected(ctx))
	case strings.HasPrefix(query, "connected="):
		u, v, err := parsePair(strings.TrimPrefix(query, "connected="))
		if err != nil {
			return "", err
		}
		if int(u) >= n || int(v) >= n {
			return "", fmt.Errorf("vertex out of range [0,%d)", n)
		}
		return show(sn.Connected(ctx, u, v))
	case query == "strongly-connected":
		return show(sn.IsStronglyConnected(ctx))
	case query == "num-cc":
		cnt, err := sn.CountCC(ctx)
		return fmt.Sprintf("%d connected components", cnt), err
	case query == "num-scc":
		res, err := sn.SCC(ctx)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%d strongly connected components", res.NumComponents), nil
	case query == "num-bicc":
		res, err := sn.BiCC(ctx)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%d biconnected components", res.NumBlocks), nil
	case query == "num-bgcc":
		res, err := sn.BgCC(ctx)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%d bridgeless connected components", res.NumComponents), nil
	case query == "largest-cc":
		res, err := sn.LargestCC(ctx)
		if err != nil {
			return "", err
		}
		how := "complete computation"
		if res.Partial {
			how = "partial computation"
		}
		return fmt.Sprintf("largest CC: %d vertices (via %s)", res.Size, how), nil
	case query == "largest-scc":
		res, err := sn.LargestSCC(ctx)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("largest SCC: %d vertices", res.Size), nil
	case strings.HasPrefix(query, "in-largest-cc="):
		v, err := strconv.ParseUint(strings.TrimPrefix(query, "in-largest-cc="), 10, 32)
		if err != nil {
			return "", fmt.Errorf("bad vertex id: %v", err)
		}
		if int(v) >= n {
			return "", fmt.Errorf("vertex %d out of range", v)
		}
		return show(sn.InLargestCC(ctx, aquila.V(v)))
	case query == "aps":
		aps, err := sn.ArticulationPoints(ctx)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%d articulation points: %v", len(aps), truncate(aps, 20)), nil
	case query == "bridges":
		brs, err := sn.Bridges(ctx)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%d bridges: %v", len(brs), truncate(brs, 20)), nil
	case query == "stats":
		return stats.Render(sn.Directed(), sn.Undirected(), 0), nil
	case query == "cc-policy":
		return fmt.Sprintf("cc policy: %s", sn.CCPolicy()), nil
	case query == "scc-policy":
		pol, err := sn.SCCPolicy()
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("scc policy: %s", pol), nil
	case query == "bicc-policy":
		return fmt.Sprintf("bicc policy: %s", sn.BiCCPolicy()), nil
	case query == "histogram":
		hist, err := sn.CCSizeHistogram(ctx)
		if err != nil {
			return "", err
		}
		sizes := make([]int, 0, len(hist))
		for s := range hist {
			sizes = append(sizes, s)
		}
		sort.Ints(sizes)
		var b strings.Builder
		fmt.Fprintf(&b, "CC size histogram (%d distinct sizes):\n", len(sizes))
		for _, s := range sizes {
			fmt.Fprintf(&b, "  size %8d: %d component(s)\n", s, hist[s])
		}
		return strings.TrimRight(b.String(), "\n"), nil
	default:
		return "", fmt.Errorf("unknown query %q (available: %s)", query, strings.Join(Queries, ", "))
	}
}

// show renders a yes/no answer, or passes its error on.
func show(ok bool, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%v", ok), nil
}

// Explain classifies a query per the paper's §3 categories and renders the
// strategy Aquila will use (the -explain flag).
func Explain(query string) (string, error) {
	if query == "cc-policy" {
		return "query \"cc-policy\" is diagnostic: it reports the CC matrix cell " +
			"the engine resolved (the adaptive chooser's pick under -cc-policy=auto) " +
			"without running a kernel", nil
	}
	if query == "scc-policy" {
		return "query \"scc-policy\" is diagnostic: it reports the SCC matrix cell " +
			"the engine resolved (the probe-fed chooser's pick under -scc-policy=auto) " +
			"without running a kernel; directed inputs only", nil
	}
	if query == "bicc-policy" {
		return "query \"bicc-policy\" is diagnostic: it reports the BiCC matrix cell " +
			"the engine resolved (the depth-probe-fed chooser's pick under " +
			"-bicc-policy=auto) without running a kernel", nil
	}
	q, err := toPlanQuery(query)
	if err != nil {
		return "", err
	}
	p, err := plan.Classify(q)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "query %q on %v -> %v\n", query, q.Alg, p.Category)
	for i, s := range p.Steps {
		fmt.Fprintf(&b, "  %d. %s\n", i+1, s)
	}
	return strings.TrimRight(b.String(), "\n"), nil
}

// toPlanQuery maps CLI query strings onto the structured plan queries.
func toPlanQuery(query string) (plan.Query, error) {
	switch {
	case query == "connected", strings.HasPrefix(query, "connected="):
		return plan.Query{Alg: plan.CC, Kind: "connected"}, nil
	case query == "strongly-connected":
		return plan.Query{Alg: plan.SCC, Kind: "connected"}, nil
	case query == "num-cc", query == "histogram":
		return plan.Query{Alg: plan.CC, Kind: "count"}, nil
	case query == "num-scc":
		return plan.Query{Alg: plan.SCC, Kind: "count"}, nil
	case query == "num-bicc":
		return plan.Query{Alg: plan.BiCC, Kind: "count"}, nil
	case query == "num-bgcc":
		return plan.Query{Alg: plan.BgCC, Kind: "count"}, nil
	case query == "largest-cc", strings.HasPrefix(query, "in-largest-cc="):
		return plan.Query{Alg: plan.CC, Kind: "largest-size"}, nil
	case query == "largest-scc":
		return plan.Query{Alg: plan.SCC, Kind: "largest-size"}, nil
	case query == "aps":
		return plan.Query{Alg: plan.BiCC, Kind: "aps"}, nil
	case query == "bridges":
		return plan.Query{Alg: plan.BgCC, Kind: "bridges"}, nil
	default:
		return plan.Query{}, fmt.Errorf("unknown query %q (available: %s)", query, strings.Join(Queries, ", "))
	}
}

func truncate[T any](vs []T, k int) []T {
	if len(vs) <= k {
		return vs
	}
	return vs[:k]
}
