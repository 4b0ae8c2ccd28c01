package main

import (
	"crypto/sha256"
	"encoding/hex"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

var (
	// A Go duration as the CLI prints it: "7.05s", "209.786759ms", "1m2.5s".
	durationRE = regexp.MustCompile(`\b(\d+h)?(\d+m)?\d+(\.\d+)?(ns|µs|ms|s)\b`)
	ecRE       = regexp.MustCompile(`EC=\d+`)
	// Which engine or transport produced a count is not part of the result.
	engineRE = regexp.MustCompile(`\[(\w+ engine|distributed)\]`)
	junkRE   = regexp.MustCompile(`[ ,]*\([ ,]*\)|[ ,]+$`)
	spacesRE = regexp.MustCompile(`[ ,]{2,}`)
)

// Lines that describe the run, not its result. The master prints no
// "loaded" line, so dropping it is also what lets fsm_ml and fsm_ml_dist
// share a digest.
var chatter = []string{
	"loaded ", "master listening on ", "waiting for ", "metrics snapshot written to ", "pprof/expvar listening on ",
}

// normalize reduces CLI output to the result it states: run chatter,
// timings, extension counts and engine tags are removed and the remaining
// lines are sorted, because motif classes and frequent patterns are printed
// in map order.
func normalize(out string) string {
	var lines []string
next:
	for _, l := range strings.Split(out, "\n") {
		for _, p := range chatter {
			if strings.HasPrefix(l, p) {
				continue next
			}
		}
		l = durationRE.ReplaceAllString(l, "")
		l = ecRE.ReplaceAllString(l, "")
		l = engineRE.ReplaceAllString(l, "")
		l = junkRE.ReplaceAllString(l, "")
		l = spacesRE.ReplaceAllString(l, " ")
		if l = strings.TrimSpace(l); l != "" {
			lines = append(lines, l)
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// digest is the short hash of the normalised output that jobs are compared
// by.
func digest(out string) string {
	sum := sha256.Sum256([]byte(normalize(out)))
	return hex.EncodeToString(sum[:8])
}

var (
	subgraphsRE = regexp.MustCompile(`(\d+) subgraphs`)
	frequentRE  = regexp.MustCompile(`frequent patterns \(support >= \d+\): (\d+)`)
)

// firstInt returns the first capture of re in out as a number, 0 if absent.
func firstInt(re *regexp.Regexp, out string) int64 {
	m := re.FindStringSubmatch(out)
	if m == nil {
		return 0
	}
	n, _ := strconv.ParseInt(m[1], 10, 64) // the capture is all digits
	return n
}

// fullDigests are the reference digests at full size, keyed by job kind
// ("fsm" serves both FSM workloads: they must agree). After a deliberate
// change of the CLI's result lines or of internal/workload's generators,
// copy the "digest" lines that `go run -C benchmark . -seed 1 -trace 0`
// prints.
var fullDigests = map[string]string{
	"motifs5":   "b2dfd0c0a24e242f",
	"fsm":       "26942d921abe44f6",
	"triangles": "c0e36a245fb999cd",
	"cliques4":  "3fd378f7f2f6e060",
	"square":    "9bfb5b9e6fa421ee",
	"path4":     "3292515def9f0934",
	"star4":     "4c4384a4dbe50c7b",
	"motifs3":   "d9c05dfcfedfdaca",
}

// referenceDigest returns the checked-in digest a job of this kind must
// reproduce, "" where the untimed first job of the run is the reference
// instead. Counts hold for every seed, because the seed only renumbers the
// input (see renumber). FSM's supports do not: an embedding of a pattern
// with a non-trivial automorphism is entered into the support domains in
// one orientation only, and which one depends on the vertex numbering, so
// isomorphic inputs give supports a few units apart (133 against 134 for a
// single edge between two equal labels). Its digest is pinned for seed 1.
func referenceDigest(kind string, seed int64, quick bool) string {
	if quick || kind == "fsm" && seed != 1 {
		return ""
	}
	return fullDigests[kind]
}
