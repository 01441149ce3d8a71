package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// knownKinds is the closed event taxonomy; ValidateJSONLines rejects
// anything outside it so schema drift fails CI instead of silently passing.
var knownKinds = map[string]bool{
	EvRunStart:      true,
	EvRunEnd:        true,
	EvDetect:        true,
	EvDegrade:       true,
	EvInject:        true,
	EvRunOutcome:    true,
	EvWorkerStart:   true,
	EvWorkerStop:    true,
	EvCampaignStart: true,
	EvCampaignEnd:   true,
	EvArchStart:     true,
	EvSpanBegin:     true,
	EvSpanEnd:       true,

	EvShardDispatch:  true,
	EvShardDone:      true,
	EvShardRetry:     true,
	EvLeaseMigrate:   true,
	EvMemberJoin:     true,
	EvMemberLeave:    true,
	EvMemberDead:     true,
	EvDetectionFound: true,
}

// ValidateJSONLines checks a JSON-lines trace against the event schema:
// every line parses as an Event with no unknown fields, kinds come from the
// closed taxonomy, sequence numbers start at 1 and increase strictly by 1,
// and per-kind required fields are present. Sequencing is per stream: when
// the request id changes between lines, a new stream begins and its
// sequence may start anywhere (a flight log concatenates per-request
// dumps, and a full bounded Log evicted its oldest events) — but within a
// stream the strict +1 rule holds. Returns the number of valid events, or the
// first violation.
func ValidateJSONLines(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var (
		n       int
		prev    uint64
		prevReq string
		first   = true
	)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		n++
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		var e Event
		if err := dec.Decode(&e); err != nil {
			return n, fmt.Errorf("line %d: %v", n, err)
		}
		newStream := first || e.Req != prevReq
		if err := checkEvent(e, prev, newStream); err != nil {
			return n, fmt.Errorf("line %d: %v", n, err)
		}
		prev, prevReq, first = e.Seq, e.Req, false
	}
	if err := sc.Err(); err != nil {
		return n, err
	}
	if n == 0 {
		return 0, fmt.Errorf("trace: empty")
	}
	return n, nil
}

func checkEvent(e Event, prev uint64, newStream bool) error {
	if !knownKinds[e.Kind] {
		return fmt.Errorf("unknown kind %q", e.Kind)
	}
	// A request-stamped stream may begin at any sequence number (a bounded
	// Log's eviction drops its head); unstamped traces must start at 1.
	if newStream && e.Req != "" {
		if e.Seq == 0 {
			return fmt.Errorf("seq 0 (must be positive)")
		}
	} else if e.Seq != prev+1 {
		return fmt.Errorf("seq %d after %d (must increase by 1 from 1)", e.Seq, prev)
	}
	switch e.Kind {
	case EvRunStart:
		if e.Func == "" {
			return fmt.Errorf("%s: missing func", e.Kind)
		}
	case EvRunEnd:
		if e.Outcome == "" {
			return fmt.Errorf("%s: missing outcome", e.Kind)
		}
	case EvDetect:
		if e.Detect == "" {
			return fmt.Errorf("%s: missing detect", e.Kind)
		}
	case EvDegrade:
		if e.Precision == 0 {
			return fmt.Errorf("%s: missing precision", e.Kind)
		}
	case EvInject:
		if e.Inst < 0 {
			return fmt.Errorf("%s: missing inst", e.Kind)
		}
	case EvRunOutcome:
		if e.Outcome == "" {
			return fmt.Errorf("%s: missing outcome", e.Kind)
		}
		if e.Run < 0 {
			return fmt.Errorf("%s: missing run", e.Kind)
		}
	case EvCampaignStart, EvCampaignEnd:
		if e.Name == "" {
			return fmt.Errorf("%s: missing name", e.Kind)
		}
	case EvArchStart:
		if e.Arch == "" {
			return fmt.Errorf("%s: missing arch", e.Kind)
		}
	case EvShardDispatch, EvShardDone, EvShardRetry, EvLeaseMigrate, EvDetectionFound:
		if e.Name == "" {
			return fmt.Errorf("%s: missing name", e.Kind)
		}
		if e.Addr == "" {
			return fmt.Errorf("%s: missing addr", e.Kind)
		}
		if e.Kind == EvShardDispatch && e.Outcome == "" {
			return fmt.Errorf("%s: missing outcome", e.Kind)
		}
	case EvMemberJoin, EvMemberLeave, EvMemberDead:
		if e.Addr == "" {
			return fmt.Errorf("%s: missing addr", e.Kind)
		}
	case EvSpanBegin, EvSpanEnd:
		if e.Name == "" {
			return fmt.Errorf("%s: missing name", e.Kind)
		}
		if e.Span == 0 {
			return fmt.Errorf("%s: missing span id", e.Kind)
		}
		if e.Kind == EvSpanBegin && e.Parent >= e.Span {
			return fmt.Errorf("%s: parent %d not older than span %d", e.Kind, e.Parent, e.Span)
		}
	}
	return nil
}
