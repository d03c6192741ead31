package transport_test

import (
	"testing"

	"cacqr/internal/transport"
)

// CommID must be a pure function of its arguments (every member derives
// it alone) that tells apart everything that tells two communicators
// apart: the parent, the call, and the members in order.
func TestCommID(t *testing.T) {
	base := transport.CommID(0, 3, 1, 2)
	if again := transport.CommID(0, 3, []int{1, 2}...); again != base {
		t.Fatalf("same arguments hashed to %#x and %#x", base, again)
	}
	for name, other := range map[string]uint64{
		"parent":        transport.CommID(1, 3, 1, 2),
		"call sequence": transport.CommID(0, 4, 1, 2),
		"member order":  transport.CommID(0, 3, 2, 1),
		"fewer members": transport.CommID(0, 3, 1),
		"more members":  transport.CommID(0, 3, 1, 2, 0),
		"negative key":  transport.CommID(0, 3, 1, -2),
	} {
		if other == base {
			t.Errorf("changing the %s left the id at %#x", name, base)
		}
	}
}
