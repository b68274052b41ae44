package obs

import (
	"bytes"
	"os"
	"reflect"
	"testing"
)

// FuzzReadJournalJSONL feeds arbitrary bytes to the journal reader. The
// seeds come from a chaos journal recorded by the root TestJournalReplayChaos
// (JOURNAL_ARTIFACT=... go test -run TestJournalReplayChaos .): each line and
// each window of four lines, plus a few malformed lines. Seeds stay small
// because the fuzzer minimizes every interesting input it derives from
// them, which holds up a short run; the whole recording is checked once up
// front instead. The reader must never panic, every event it accepts must
// have a known kind and a non-negative seq, and whatever it accepts must
// re-encode through the JSONL sink's encoder and read back to the same
// events.
func FuzzReadJournalJSONL(f *testing.F) {
	rec, err := os.ReadFile("testdata/chaos-journal.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	evs, err := ReadJournalJSONL(bytes.NewReader(rec))
	if err != nil || len(evs) == 0 {
		f.Fatalf("recorded journal: %d events, err %v", len(evs), err)
	}
	checkJournalRoundTrip(f, evs)
	lines := bytes.SplitAfter(rec, []byte("\n"))
	for i := range lines {
		f.Add(lines[i])
		if i+4 <= len(lines) {
			f.Add(bytes.Join(lines[i:i+4], nil))
		}
	}
	f.Add([]byte(`{"seq":1,"kind":"reply","support":0.1,"pruned":[3,-9]`))
	f.Add([]byte(`{"seq":"1"}`))
	f.Add([]byte("{\"members\":[],\"key\":\"\\u0000\\ud800\"}\n\n{}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := ReadJournalJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, e := range evs {
			if !knownKind(e.Kind) || e.Seq < 0 {
				t.Fatalf("accepted a line that is no journal event: %+v", e)
			}
		}
		checkJournalRoundTrip(t, evs)
	})
}

// checkJournalRoundTrip encodes evs as the JSONL sink does and requires the
// stream to read back to the same events.
func checkJournalRoundTrip(t testing.TB, evs []Event) {
	t.Helper()
	var enc []byte
	for i := range evs {
		enc = appendEventJSON(enc, &evs[i])
		enc = append(enc, '\n')
	}
	again, err := ReadJournalJSONL(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("re-encoded journal does not read back: %v\n%s", err, enc)
	}
	if !reflect.DeepEqual(normalizeEvents(evs), normalizeEvents(again)) {
		t.Fatalf("journal round trip changed the events:\nread  %+v\nagain %+v\nencoded %s", evs, again, enc)
	}
}

// normalizeEvents maps empty slices to nil: the wire format omits an empty
// members or pruned list, so `"members":[]` and no members field are the
// same event.
func normalizeEvents(evs []Event) []Event {
	if len(evs) == 0 {
		return nil
	}
	out := make([]Event, len(evs))
	for i, e := range evs {
		if len(e.Members) == 0 {
			e.Members = nil
		}
		if len(e.Pruned) == 0 {
			e.Pruned = nil
		}
		out[i] = e
	}
	return out
}
