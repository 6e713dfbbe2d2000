package ctlplane

import (
	"reflect"
	"testing"
)

func TestDecodeCommand(t *testing.T) {
	node := Command{Kind: CmdRecoverNode, Switch: 7, LastSeenNS: 1e6, AtNS: 2e6}
	link := Command{Kind: CmdRecoverLink, ASwitch: 3, APort: 2, BSwitch: 9, BPort: 1, AtNS: 5, DetectionNS: 4, Trace: 11, Span: 12, Proc: "agent-3"}
	for _, tc := range []struct {
		name string
		data []byte
		want *Command // nil: must be rejected
	}{
		{"node", node.Encode(), &node},
		{"link", link.Encode(), &link},
		{"not json", []byte("x"), nil},
		{"no kind", []byte(`{"switch":7,"at_ns":1}`), nil},
		{"unknown kind", []byte(`{"kind":9,"at_ns":1}`), nil},
		// Kind 3 folded sub-commands into one entry; it is retired and must be
		// refused, not skipped.
		{"retired batch", []byte(`{"kind":3,"at_ns":0,"sub":["e30="]}`), nil},
	} {
		got, err := DecodeCommand(tc.data)
		switch {
		case tc.want == nil && err == nil:
			t.Errorf("%s: accepted as %+v", tc.name, got)
		case tc.want != nil && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != nil && !reflect.DeepEqual(got, *tc.want):
			t.Errorf("%s: decoded %+v, want %+v", tc.name, got, *tc.want)
		}
	}
}
