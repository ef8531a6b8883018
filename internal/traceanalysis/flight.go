package traceanalysis

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Flight-dump analysis. A flight dump is what internal/obs/telemetry's
// monitor writes when a live rule breaches: one JSON header line
// identifying the breach, then the flight recorder's retained trace
// records (a plain JSON-lines trace fragment, oldest first). This file
// parses the document and renders the report behind `tracetool flight`.

// FlightSchemaPrefix is the schema-family marker a flight header must
// carry. The producer (telemetry.FlightSchema) appends its version to
// it; matching on the prefix lets this reader accept later minor
// revisions while still rejecting arbitrary JSON lines that merely
// look header-ish.
const FlightSchemaPrefix = "prospector/flight/"

// FlightHeader is the first line of a flight dump, as telemetry's
// monitor writes it: which rule breached, with what observed value, at
// which tick, over how many retained records. Everything after it is a
// plain JSON-lines trace fragment (the flight ring, oldest record
// first). The JSON keys are the contract.
type FlightHeader struct {
	Flight  string  `json:"flight"` // FlightSchemaPrefix plus a version
	Series  string  `json:"series"`
	Kind    string  `json:"kind"`
	Got     float64 `json:"got"`
	Want    string  `json:"want"`
	Tick    int64   `json:"tick"`
	Now     float64 `json:"now"`
	Records int     `json:"records"`
	Dropped int64   `json:"dropped"`
	Note    string  `json:"note,omitempty"`
}

// FlightDump is a parsed flight-recorder dump: the breach header plus
// the retained trace fragment rebuilt into a span tree.
type FlightDump struct {
	Header FlightHeader
	Trace  *Trace
}

// ParseFlight reads a flight dump: the header line, then the trace
// fragment. A reader with no header line, a header from a different
// schema family, or an unparsable fragment is an error; a header with
// zero following records parses (Trace has no records) — callers
// decide whether that is reportable.
func ParseFlight(r io.Reader) (*FlightDump, error) {
	br := bufio.NewReader(r)
	line, err := br.ReadBytes('\n')
	if len(line) == 0 && err != nil {
		return nil, fmt.Errorf("traceanalysis: flight dump is empty")
	}
	var hdr FlightHeader
	if jerr := json.Unmarshal(bytes.TrimSpace(line), &hdr); jerr != nil {
		return nil, fmt.Errorf("traceanalysis: flight header: %w", jerr)
	}
	if !strings.HasPrefix(hdr.Flight, FlightSchemaPrefix) {
		return nil, fmt.Errorf("traceanalysis: not a flight dump (flight=%q, want prefix %q)", hdr.Flight, FlightSchemaPrefix)
	}
	t, err := Parse(br)
	if err != nil {
		return nil, err
	}
	return &FlightDump{Header: hdr, Trace: t}, nil
}

// Render formats the flight report: what breached, the ring state at
// dump time, the record window, and per-name record counts so the
// reader sees at a glance what the recorder retained. Deterministic:
// same dump bytes, same report bytes.
func (d *FlightDump) Render() string {
	var b strings.Builder
	h := d.Header
	fmt.Fprintf(&b, "flight dump (%s)\n", h.Flight)
	fmt.Fprintf(&b, "breach: %s %s got %s (want %s)\n",
		h.Series, h.Kind, formatNum(h.Got), h.Want)
	if h.Note != "" {
		fmt.Fprintf(&b, "note:   %s\n", h.Note)
	}
	fmt.Fprintf(&b, "tick:   %d (now %s); %d records retained, %d evicted\n",
		h.Tick, formatNum(h.Now), h.Records, h.Dropped)
	recs := d.Trace.Records
	if len(recs) == 0 {
		b.WriteString("records: none\n")
		return b.String()
	}
	fmt.Fprintf(&b, "records: %d, seq %d..%d, spans %d\n",
		len(recs), recs[0].Seq, recs[len(recs)-1].Seq, d.Trace.SpanCount())
	counts := map[string]int{}
	for i := range recs {
		name := recs[i].Name
		if name == "" { // end records close a span opened earlier
			name = "(end)"
		}
		counts[recs[i].Kind.String()+" "+name]++
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "  %-28s %d\n", k, counts[k])
	}
	return b.String()
}

// formatNum renders a float in shortest round-trip form, matching the
// trace format (integral values come out without a decimal point).
func formatNum(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
