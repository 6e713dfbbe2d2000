package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// FuzzReadJSONL feeds arbitrary bytes to ReadJSONL, the reader of every
// trace file sbtap and the benchmark's stitcher load. It checks that nothing
// panics and that every event it accepts survives the JSONL encoding
// unchanged.
func FuzzReadJSONL(f *testing.F) {
	ev := NewEvent(KindRecoveryComplete, 3*time.Millisecond)
	ev.Wall, ev.Span, ev.Trace, ev.Proc, ev.Detail = true, 2, 9, "controller", "link"
	ev.Detection, ev.Report, ev.Total = time.Millisecond, 30*time.Microsecond, 1030*time.Microsecond
	line, err := json.Marshal(ev)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(line, '\n'))
	f.Add(append(append(line, '\n'), `{"kind":"log","t_ns":1`...)) // truncated final line
	f.Add([]byte("{\"kind\":\"no-such-kind\",\"t_ns\":0}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, _ := ReadJSONL(bytes.NewReader(data))
		for _, ev := range evs {
			b, err := json.Marshal(ev)
			if err != nil {
				t.Fatalf("accepted event %+v does not encode: %v", ev, err)
			}
			var back Event
			if err := json.Unmarshal(b, &back); err != nil || back != ev {
				t.Fatalf("accepted event %+v encodes to %s, which decodes to %+v, %v", ev, b, back, err)
			}
		}
	})
}
