package federation

import "testing"

// TestDispatcherStatelessCapability pins which built-ins declare the
// stateless capability: roundrobin batches ahead of the members, while the
// view-sampling policies must not.
func TestDispatcherStatelessCapability(t *testing.T) {
	rr, err := ByName("roundrobin")
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := rr.(StatelessDispatcher); !ok || !s.Stateless() {
		t.Error("roundrobin does not declare the stateless capability")
	}
	for _, name := range []string{"queuedepth", "costaware"} {
		d, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if s, ok := d.(StatelessDispatcher); ok && s.Stateless() {
			t.Errorf("%s declares statelessness but samples live views", name)
		}
	}
}
