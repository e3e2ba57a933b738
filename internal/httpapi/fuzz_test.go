package httpapi

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/iotbind/iotbind/internal/cloud"
	"github.com/iotbind/iotbind/internal/transport"
)

// FuzzHTTPBody throws arbitrary bytes at every route: the server must
// answer with a well-formed HTTP status and never panic. When not run
// under `go test -fuzz`, the seed corpus executes as a regular test.
func FuzzHTTPBody(f *testing.F) {
	seeds := []string{
		"", "{}", "{nope", `{"device_id":"x"}`,
		`{"kind":1,"device_id":"` + strings.Repeat("A", 4096) + `"}`,
		`{"user_id":"u","password":"p"}`,
		`[1,2,3]`, `"a string"`, `{"kind":"not-an-int"}`,
		"\x00\x01\x02\xff", `{"device_id":` + strings.Repeat("[", 64) + strings.Repeat("]", 64) + `}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}

	reg := cloud.NewRegistry()
	if err := reg.Add(cloud.DeviceRecord{ID: "d", FactorySecret: "s"}); err != nil {
		f.Fatal(err)
	}
	svc, err := cloud.NewService(laxDesign(), reg)
	if err != nil {
		f.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(svc))
	f.Cleanup(srv.Close)

	paths := []string{
		routes[transport.OpLogin], routes[transport.OpStatus], routes[transport.OpBind],
		routes[transport.OpUnbind], routes[transport.OpControl], routes[transport.OpShadow],
		routes[transport.OpShare],
	}
	f.Fuzz(func(t *testing.T, body string) {
		for _, route := range paths {
			resp, err := http.Post(srv.URL+route, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatalf("%s: transport error: %v", route, err)
			}
			resp.Body.Close()
			if resp.StatusCode < 200 || resp.StatusCode > 599 {
				t.Fatalf("%s: bogus status %d", route, resp.StatusCode)
			}
		}
	})
}
