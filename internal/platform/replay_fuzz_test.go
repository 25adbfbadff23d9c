package platform

import (
	"bytes"
	"testing"

	"github.com/treads-project/treads/internal/journal"
)

// FuzzReplayRecord hands arbitrary bytes to a follower as the owner's next
// shipped record. The decoder ApplyShipped and journal replay share must
// refuse or apply it, never panic. A record refused before it is journaled
// leaves the follower's state as it was and the follower unsynced; a
// journaled one recovers, through replay's decoder, to the state the
// follower reached. The seeds are one golden record per op kind.
func FuzzReplayRecord(f *testing.F) {
	for _, c := range goldenRecords(f) {
		f.Add([]byte(c.golden))
	}
	f.Add([]byte(`{"op":"browse","user":"ju00","slots":-1}`))
	f.Add([]byte(`{"op":"import_users","chunk":{"profiles":[null,{"id":""}]}}`))
	f.Add([]byte(`{"op":"add_user","profile":{"id":"u","binary":["b","a","b"],"values":{"c":"v"},"likes":["p","p"]}}`))
	f.Add([]byte(`null`))
	opts := journal.Options{NoSync: true}
	f.Fuzz(func(t *testing.T, payload []byte) {
		dir := t.TempDir()
		jp := mustOpenJournaled(t, dir, opts, journalBoot)
		if err := jp.BeginFollow(0); err != nil {
			t.Fatal(err)
		}
		before := marshalState(t, jp.State())
		err := jp.ApplyShipped(1, payload)
		st := followStatus(jp)
		after := marshalState(t, jp.State())
		if cerr := jp.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		if st.LastLSN == 0 {
			if err == nil {
				t.Fatalf("record %q neither journaled nor refused", payload)
			}
			if st.Synced || !bytes.Equal(before, after) {
				t.Fatalf("refused record %q (%v) left synced=%v, state changed=%v", payload, err, st.Synced, !bytes.Equal(before, after))
			}
			return
		}
		back := mustOpenJournaled(t, dir, opts, noBoot(t))
		defer back.Close()
		if !bytes.Equal(marshalState(t, back.State()), after) {
			t.Fatalf("record %q (%v): recovered state differs from the follower's", payload, err)
		}
	})
}
