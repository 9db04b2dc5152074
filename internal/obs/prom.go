// Package obs is the cmds' observability layer: the one flag block
// (CLI) that alpusim, queuestudy and queueprobe share for their file
// sinks, profiles, -log and -serve; a Prometheus text renderer for
// telemetry snapshots; the static run report; and an opt-in HTTP server
// exposing /metrics, /healthz, /progress, /critpath, /report and
// /timeseries while a run lasts.
//
// Everything here is host-side and strictly read-only with respect to
// the simulated worlds: the server observes frozen telemetry.Snapshot
// merges and the sweep pool's atomic progress counters, so serving can
// never perturb simulation results — the experiment output stays
// byte-identical with and without -serve.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"alpusim/internal/telemetry"
)

// promPrefix namespaces every exported metric, per Prometheus naming
// conventions (and it guarantees sanitized names never start with a
// digit).
const promPrefix = "alpusim_"

// PromName maps a hierarchical slash-separated telemetry path to a legal
// Prometheus metric name: every byte outside [a-zA-Z0-9_:] becomes '_'
// and the result is prefixed with "alpusim_". The mapping is lossy
// ("a/b" and "a_b" collide); WriteProm disambiguates collisions with a
// path label.
func PromName(path string) string {
	var b strings.Builder
	b.Grow(len(promPrefix) + len(path))
	b.WriteString(promPrefix)
	for i := 0; i < len(path); i++ {
		c := path[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c >= '0' && c <= '9', c == '_', c == ':':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote and newline.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// pathLabel renders the disambiguating label set for a sample whose
// sanitized name collides with another path ("" when unique).
func pathLabel(path string, multi bool) string {
	if !multi {
		return ""
	}
	return fmt.Sprintf(`{path="%s"}`, escapeLabel(path))
}

// groupByPromName buckets metric paths by sanitized name, returning the
// names sorted and each bucket's paths sorted — the deterministic emit
// order.
func groupByPromName(paths []string) ([]string, map[string][]string) {
	byName := make(map[string][]string, len(paths))
	for _, p := range paths {
		n := PromName(p)
		byName[n] = append(byName[n], p)
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
		sort.Strings(byName[n])
	}
	sort.Strings(names)
	return names, byName
}

// WriteProm renders a telemetry snapshot in the Prometheus text
// exposition format (text/plain; version=0.0.4): counters as counter
// families, gauges as gauge families, and fixed-bucket histograms as
// cumulative le-labelled histogram families with _sum and _count.
// Output is deterministic: families sort by metric name, colliding
// paths sort within a family and carry a path label.
func WriteProm(w io.Writer, s telemetry.Snapshot) error {
	bw := bufio.NewWriter(w)

	names, byName := groupByPromName(keys(s.Counters))
	for _, name := range names {
		paths := byName[name]
		fmt.Fprintf(bw, "# TYPE %s counter\n", name)
		for _, p := range paths {
			fmt.Fprintf(bw, "%s%s %d\n", name, pathLabel(p, len(paths) > 1), s.Counters[p])
		}
	}

	names, byName = groupByPromName(keys(s.Gauges))
	for _, name := range names {
		paths := byName[name]
		fmt.Fprintf(bw, "# TYPE %s gauge\n", name)
		for _, p := range paths {
			fmt.Fprintf(bw, "%s%s %d\n", name, pathLabel(p, len(paths) > 1), s.Gauges[p])
		}
	}

	names, byName = groupByPromName(keys(s.Hists))
	for _, name := range names {
		paths := byName[name]
		fmt.Fprintf(bw, "# TYPE %s histogram\n", name)
		for _, p := range paths {
			h := s.Hists[p]
			extra := ""
			if len(paths) > 1 {
				extra = fmt.Sprintf(`,path="%s"`, escapeLabel(p))
			}
			for _, b := range h.CumBuckets() {
				le := "+Inf"
				if b.Le >= 0 {
					le = strconv.Itoa(b.Le)
				}
				fmt.Fprintf(bw, "%s_bucket{le=%q%s} %d\n", name, le, extra, b.Count)
			}
			fmt.Fprintf(bw, "%s_sum%s %d\n", name, pathLabel(p, len(paths) > 1), h.Sum())
			fmt.Fprintf(bw, "%s_count%s %d\n", name, pathLabel(p, len(paths) > 1), h.N())
		}
	}

	// Summary-style quantile estimates for each histogram family, as a
	// parallel gauge family under a _quantiles suffix (a histogram family
	// may not carry extra samples, and dashboards want p50/p95/p99 without
	// doing histogram_quantile over fixed buckets).
	for _, name := range names {
		paths := byName[name]
		fmt.Fprintf(bw, "# TYPE %s_quantiles gauge\n", name)
		for _, p := range paths {
			h := s.Hists[p]
			extra := ""
			if len(paths) > 1 {
				extra = fmt.Sprintf(`,path="%s"`, escapeLabel(p))
			}
			for _, q := range h.SummaryQuantiles() {
				fmt.Fprintf(bw, "%s_quantiles{quantile=%q%s} %d\n",
					name, strconv.FormatFloat(q.P, 'g', -1, 64), extra, q.Value)
			}
		}
	}

	return bw.Flush()
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
