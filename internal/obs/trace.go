package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The trace exporter consumes the engine's event-log stream — the same
// deterministic, golden-fingerprinted line format internal/sim hashes —
// and renders it as Chrome trace_event JSON (chrome://tracing, Perfetto)
// and/or a JSONL event log. Working from the committed stream rather than
// a parallel instrumentation path means the export is byte-stable by
// construction: identical event streams yield identical exports, so the
// golden-trace layer can pin exports with sha256 fixtures exactly like the
// raw streams.
//
// The exporter also audits the stream: timestamps must be non-decreasing,
// arrival sequence numbers contiguous, and job lifecycles well-formed
// (sched → classify/tx → jobdone|jobabort, one job at a time). A dropped
// or reordered line surfaces as a Close error (pinned by the mutation test
// in trace_test.go), so a broken instrumentation path cannot silently
// produce a plausible-looking trace.

// Chrome trace thread ids: one lane per device subsystem.
const (
	tidCompute    = 1 // job execution spans, classify/tx/ckpt/rollback instants
	tidPower      = 2 // brownout → poweron "off" spans
	tidCapture    = 3 // capture/arrive/ibodrop instants
	tidController = 4 // pid updates
)

// ExporterConfig selects the exporter's sinks; any may be nil.
type ExporterConfig struct {
	// Chrome receives the run as Chrome trace_event JSON.
	Chrome io.Writer
	// JSONL receives one JSON object per event line.
	JSONL io.Writer
	// Metrics, when set, counts exported events per kind
	// (trace_events_total, trace_<kind>_events_total).
	Metrics *Registry
}

// Exporter is an io.Writer for the engine event-log stream (engine.New tees
// it into engine.Config.EventLog when Trace or TraceJSONL is set). It is not
// safe for concurrent use; one exporter serves one run. Close flushes the
// Chrome JSON trailer and reports any stream-integrity violation.
type Exporter struct {
	cfg ExporterConfig

	carry []byte // partial trailing line between Write calls
	err   error  // first stream error, sticky

	wroteHeader bool
	events      int

	// Stream-integrity state.
	lastTS   int64  // µs, non-decreasing
	nextSeq  uint64 // next expected arrival sequence number
	openJob  string // job id of the in-flight sched span, "" if none
	openSeq  string // seq of the in-flight sched span
	powerOff bool   // inside a brownout → poweron span

	total  *Counter
	byKind map[string]*Counter

	// Per-exporter scratch, reused line to line so the enabled-export hot
	// path stays near-zero-alloc (pinned by TestExporterAllocs): token and
	// field slices for the parser, one byte buffer for rendered output.
	// Nothing here survives a line except via explicit string copies.
	toks   []string
	fields [][2]string
	buf    []byte
}

// NewExporter builds an exporter over the given sinks.
func NewExporter(cfg ExporterConfig) *Exporter {
	e := &Exporter{cfg: cfg}
	if cfg.Metrics != nil {
		e.total = cfg.Metrics.Counter("trace_events_total")
		e.byKind = make(map[string]*Counter)
	}
	return e
}

// Events returns how many event lines the exporter has rendered.
func (e *Exporter) Events() int { return e.events }

// Write consumes event-log bytes, rendering every complete line. The first
// malformed or out-of-order line poisons the exporter; the error is
// returned here and again from Close.
func (e *Exporter) Write(p []byte) (int, error) {
	data := p
	if len(e.carry) > 0 {
		data = append(e.carry, p...)
		e.carry = nil
	}
	for {
		nl := -1
		for i, b := range data {
			if b == '\n' {
				nl = i
				break
			}
		}
		if nl < 0 {
			break
		}
		if e.err == nil {
			e.line(string(data[:nl]))
		}
		data = data[nl+1:]
	}
	if len(data) > 0 {
		e.carry = append(e.carry, data...)
	}
	return len(p), e.err
}

// Close finalises the Chrome JSON (closing any spans still open at end of
// run — a device may legitimately finish browned out or mid-job) and
// returns the first stream-integrity error, if any.
func (e *Exporter) Close() error {
	if e.err == nil {
		if e.openJob != "" {
			e.chrome(`{"name":"job:%s","ph":"E","ts":%d,"pid":1,"tid":%d,"args":{"seq":%s,"end":"run-end"}}`,
				e.openJob, e.lastTS, tidCompute, e.openSeq)
			e.openJob = ""
		}
		if e.powerOff {
			e.chrome(`{"name":"off","ph":"E","ts":%d,"pid":1,"tid":%d}`, e.lastTS, tidPower)
			e.powerOff = false
		}
	}
	if e.cfg.Chrome != nil && e.wroteHeader {
		if _, err := io.WriteString(e.cfg.Chrome, "\n]}\n"); err != nil && e.err == nil {
			e.err = err
		}
	}
	if len(e.carry) > 0 && e.err == nil {
		e.err = fmt.Errorf("obs: trace stream ended mid-line: %q", e.carry)
	}
	return e.err
}

// fail records the first stream error.
func (e *Exporter) fail(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf("obs: "+format, args...)
	}
}

// field returns the value of key in the parsed k=v fields, or fails.
func field(fields [][2]string, key string) (string, bool) {
	for _, f := range fields {
		if f[0] == key {
			return f[1], true
		}
	}
	return "", false
}

// line parses and renders one event line: "<seconds> <kind> [k=v ...]".
func (e *Exporter) line(s string) {
	ts, kind, fields, err := e.parseLineScratch(s)
	if err != nil {
		e.fail("%v", err)
		return
	}
	if ts < e.lastTS {
		e.fail("timestamp went backwards: %s (last %d µs)", s, e.lastTS)
		return
	}
	e.lastTS = ts

	// Stream-integrity checks per kind, before rendering.
	switch kind {
	case "arrive", "ibodrop":
		seq, ok := field(fields, "seq")
		if !ok {
			e.fail("%s line without seq: %q", kind, s)
			return
		}
		n, perr := strconv.ParseUint(seq, 10, 64)
		if perr != nil {
			e.fail("bad seq in %q: %v", s, perr)
			return
		}
		if n != e.nextSeq {
			e.fail("arrival sequence gap: got seq=%d, want %d (a line was dropped or reordered)", n, e.nextSeq)
			return
		}
		e.nextSeq = n + 1
	case "sched":
		if e.openJob != "" {
			e.fail("sched while job %s (seq %s) still open: %q", e.openJob, e.openSeq, s)
			return
		}
		seq, _ := field(fields, "seq")
		job, _ := field(fields, "job")
		if n, perr := strconv.ParseUint(seq, 10, 64); perr != nil || n >= e.nextSeq {
			e.fail("sched references unknown arrival seq=%s (have %d arrivals): %q", seq, e.nextSeq, s)
			return
		}
		e.openJob, e.openSeq = job, seq
	case "classify", "tx":
		if seq, _ := field(fields, "seq"); e.openJob == "" || seq != e.openSeq {
			e.fail("%s outside its job span (open seq %q): %q", kind, e.openSeq, s)
			return
		}
	case "jobdone", "jobabort":
		if seq, _ := field(fields, "seq"); e.openJob == "" || seq != e.openSeq {
			e.fail("%s without matching sched (open seq %q): %q", kind, e.openSeq, s)
			return
		}
		e.openJob, e.openSeq = "", ""
	case "brownout":
		if e.powerOff {
			e.fail("brownout while already off: %q", s)
			return
		}
		// A job interrupted by the brownout stays open: execution resumes
		// (or rolls back) after poweron without a fresh sched line. The off
		// span lives on its own lane, so the overlap renders fine.
		e.powerOff = true
	case "poweron":
		if !e.powerOff {
			e.fail("poweron while already on: %q", s)
			return
		}
		e.powerOff = false
	case "capture", "capture-miss", "ckpt", "rollback", "pid", "fault":
		// Instant events, no lifecycle state. (A transient task fault leaves
		// its job span open — the task re-executes inside the same job.)
	default:
		e.fail("unknown event kind %q in %q", kind, s)
		return
	}

	e.events++
	if e.cfg.Metrics != nil {
		e.total.Inc()
		c, ok := e.byKind[kind]
		if !ok {
			c = e.cfg.Metrics.Counter("trace_" + kind + "_events_total")
			e.byKind[kind] = c
		}
		c.Inc()
	}
	e.jsonl(ts, kind, fields)
	e.render(ts, kind, fields)
}

// render emits the Chrome trace_event entries for one event. Entries are
// assembled by append into the exporter's scratch buffer — no fmt verbs on
// the per-event path — producing bytes identical to the former
// fmt.Fprintf-based renderer (the golden-trace fixtures pin this).
func (e *Exporter) render(ts int64, kind string, fields [][2]string) {
	instant := func(tid int64) {
		b, ok := e.beginChrome()
		if !ok {
			return
		}
		b = append(b, `{"name":`...)
		b = strconv.AppendQuote(b, kind)
		b = append(b, `,"ph":"i","ts":`...)
		b = strconv.AppendInt(b, ts, 10)
		b = append(b, `,"pid":1,"tid":`...)
		b = strconv.AppendInt(b, tid, 10)
		b = append(b, `,"s":"t","args":{`...)
		b = appendArgs(b, fields)
		b = append(b, `}}`...)
		e.endChrome(b)
	}
	jobSpan := func(ph byte, abort bool) {
		b, ok := e.beginChrome()
		if !ok {
			return
		}
		job, _ := field(fields, "job")
		b = append(b, `{"name":"job:`...)
		b = append(b, job...)
		b = append(b, `","ph":"`...)
		b = append(b, ph)
		b = append(b, `","ts":`...)
		b = strconv.AppendInt(b, ts, 10)
		b = append(b, `,"pid":1,"tid":`...)
		b = strconv.AppendInt(b, tidCompute, 10)
		b = append(b, `,"args":{`...)
		if abort {
			b = append(b, `"abort":true,`...)
		}
		b = appendArgs(b, fields)
		b = append(b, `}}`...)
		e.endChrome(b)
	}
	counter := func(name, valueKey, value string) {
		b, ok := e.beginChrome()
		if !ok {
			return
		}
		b = append(b, `{"name":"`...)
		b = append(b, name...)
		b = append(b, `","ph":"C","ts":`...)
		b = strconv.AppendInt(b, ts, 10)
		b = append(b, `,"pid":1,"args":{"`...)
		b = append(b, valueKey...)
		b = append(b, `":`...)
		b = append(b, value...)
		b = append(b, `}}`...)
		e.endChrome(b)
	}
	offSpan := func(ph byte) {
		b, ok := e.beginChrome()
		if !ok {
			return
		}
		b = append(b, `{"name":"off","ph":"`...)
		b = append(b, ph)
		b = append(b, `","ts":`...)
		b = strconv.AppendInt(b, ts, 10)
		b = append(b, `,"pid":1,"tid":`...)
		b = strconv.AppendInt(b, tidPower, 10)
		b = append(b, `}`...)
		e.endChrome(b)
	}
	switch kind {
	case "brownout":
		offSpan('B')
	case "poweron":
		offSpan('E')
	case "sched":
		jobSpan('B', false)
	case "jobdone":
		jobSpan('E', false)
	case "jobabort":
		jobSpan('E', true)
	case "capture", "capture-miss", "arrive", "ibodrop":
		instant(tidCapture)
		if kind == "arrive" {
			if occ, ok := field(fields, "occ"); ok {
				counter("buffer", "occupancy", occ)
			}
		}
	case "classify", "tx", "ckpt", "rollback", "fault":
		instant(tidCompute)
	case "pid":
		instant(tidController)
		if lam, ok := field(fields, "lambda"); ok {
			counter("lambda", "lambda", lam)
		}
		if corr, ok := field(fields, "corr"); ok {
			counter("correction", "correction", corr)
		}
	}
}

// appendArgs renders the k=v fields as JSON object members.
func appendArgs(b []byte, fields [][2]string) []byte {
	for i, f := range fields {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, f[0])
		b = append(b, ':')
		b = appendJSONValue(b, f[1])
	}
	return b
}

// appendJSONValue is jsonValue in append form, with a first-byte screen so
// the common non-numeric case never pays strconv.ParseFloat's error
// allocation.
func appendJSONValue(b []byte, v string) []byte {
	if v == "true" || v == "false" {
		return append(b, v...)
	}
	if len(v) > 0 {
		switch c := v[0]; {
		case c == '-' || c == '+' || c == '.' || ('0' <= c && c <= '9'),
			c == 'n' || c == 'N' || c == 'i' || c == 'I': // NaN/Inf spellings
			if _, err := strconv.ParseFloat(v, 64); err == nil {
				return append(b, v...)
			}
		}
	}
	return strconv.AppendQuote(b, v)
}

// beginChrome starts one trace_event entry in the scratch buffer, emitting
// the stream header first if needed; ok is false when the Chrome sink is
// absent or the exporter is poisoned.
func (e *Exporter) beginChrome() ([]byte, bool) {
	if e.cfg.Chrome == nil || e.err != nil {
		return nil, false
	}
	if !e.wroteHeader {
		e.wroteHeader = true
		header := `{"displayTimeUnit":"ms","traceEvents":[` + "\n" +
			`{"name":"process_name","ph":"M","pid":1,"args":{"name":"quetzal-sim"}},` + "\n" +
			fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":"compute"}},`, tidCompute) + "\n" +
			fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":"power"}},`, tidPower) + "\n" +
			fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":"capture"}},`, tidCapture) + "\n" +
			fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":"controller"}}`, tidController)
		if _, err := io.WriteString(e.cfg.Chrome, header); err != nil {
			e.err = err
			return nil, false
		}
	}
	return append(e.buf[:0], ',', '\n'), true
}

// endChrome flushes one assembled entry and returns the buffer to scratch.
func (e *Exporter) endChrome(b []byte) {
	if _, err := e.cfg.Chrome.Write(b); err != nil {
		e.err = err
	}
	e.buf = b[:0]
}

// chrome writes one fmt-formatted trace_event entry — the cold path Close
// uses for its end-of-run span closers; the per-event path renders by
// append in render().
func (e *Exporter) chrome(format string, args ...any) {
	b, ok := e.beginChrome()
	if !ok {
		return
	}
	b = fmt.Appendf(b, format, args...)
	e.endChrome(b)
}

// jsonl writes one event as a single JSON object line, echoing the parsed
// fields in stream order.
func (e *Exporter) jsonl(ts int64, kind string, fields [][2]string) {
	if e.cfg.JSONL == nil || e.err != nil {
		return
	}
	b := append(e.buf[:0], `{"t_us":`...)
	b = strconv.AppendInt(b, ts, 10)
	b = append(b, `,"event":`...)
	b = strconv.AppendQuote(b, kind)
	for _, f := range fields {
		b = append(b, ',')
		b = strconv.AppendQuote(b, f[0])
		b = append(b, ':')
		b = appendJSONValue(b, f[1])
	}
	b = append(b, '}', '\n')
	if _, err := e.cfg.JSONL.Write(b); err != nil {
		e.err = err
	}
	e.buf = b[:0]
}

// jsonValue renders a k=v value as JSON: booleans and numbers pass through
// verbatim (preserving the stream's exact float formatting — byte-stability
// depends on never reformatting), anything else is quoted.
func jsonValue(v string) string {
	if v == "true" || v == "false" {
		return v
	}
	if _, err := strconv.ParseFloat(v, 64); err == nil {
		return v
	}
	return strconv.Quote(v)
}

// parseLineScratch splits "<seconds> <kind> [k=v ...]" into a µs timestamp,
// the event kind, and the field pairs, reusing the exporter's token/field
// scratch so a well-formed line parses without allocating. Timestamps are
// converted from the %.6f-second format by digit manipulation, not float
// arithmetic, so the conversion is exact and platform-independent.
// Bracketed values ("opts=[0 1]") may contain spaces. The returned slices
// and strings alias s and the scratch — valid only until the next line.
func (e *Exporter) parseLineScratch(s string) (int64, string, [][2]string, error) {
	tokens := e.splitFieldsScratch(s)
	if len(tokens) < 2 {
		return 0, "", nil, fmt.Errorf("malformed event line %q", s)
	}
	ts, err := microseconds(tokens[0])
	if err != nil {
		return 0, "", nil, fmt.Errorf("bad timestamp in %q: %v", s, err)
	}
	kind := tokens[1]
	fields := e.fields[:0]
	for _, tok := range tokens[2:] {
		k, v, ok := strings.Cut(tok, "=")
		if !ok || k == "" {
			return 0, "", nil, fmt.Errorf("malformed field %q in %q", tok, s)
		}
		fields = append(fields, [2]string{k, v})
	}
	e.fields = fields
	return ts, kind, fields, nil
}

// splitFieldsScratch splits on whitespace, joining bracketed groups
// ("opts=[0 1]") by substring — tokens alias s, so splitting allocates
// nothing beyond scratch growth.
func (e *Exporter) splitFieldsScratch(s string) []string {
	isSpace := func(c byte) bool {
		return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f'
	}
	out := e.toks[:0]
	for i, n := 0, len(s); i < n; {
		for i < n && isSpace(s[i]) {
			i++
		}
		if i >= n {
			break
		}
		start := i
		for i < n && !isSpace(s[i]) {
			i++
		}
		tok := s[start:i]
		if strings.Contains(tok, "[") && !strings.Contains(tok, "]") {
			for i < n {
				for i < n && isSpace(s[i]) {
					i++
				}
				if i >= n {
					break
				}
				next := i
				for i < n && !isSpace(s[i]) {
					i++
				}
				tok = s[start:i]
				if strings.Contains(s[next:i], "]") {
					break
				}
			}
		}
		out = append(out, tok)
	}
	e.toks = out
	return out
}

// microseconds converts a "%.6f"-formatted seconds string to integer µs.
func microseconds(s string) (int64, error) {
	whole, frac, ok := strings.Cut(s, ".")
	if !ok || len(frac) != 6 {
		return 0, fmt.Errorf("timestamp %q is not %%.6f-formatted", s)
	}
	w, err := strconv.ParseInt(whole, 10, 64)
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseInt(frac, 10, 64)
	if err != nil || f < 0 {
		return 0, fmt.Errorf("timestamp %q has a bad fraction", s)
	}
	if w < 0 {
		return 0, fmt.Errorf("timestamp %q is negative", s)
	}
	return w*1_000_000 + f, nil
}
