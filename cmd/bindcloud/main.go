// Command bindcloud serves an emulated vendor IoT cloud over HTTP so
// external tools (curl, load generators, other hosts) can poke a specific
// remote-binding design. The registry is pre-populated with a small fleet
// of devices generated from the vendor's ID scheme; the device IDs are
// printed at startup, exactly like the labels on real products.
//
// Usage:
//
//	bindcloud -vendor D-LINK -addr :8080 -fleet 5
//	curl -s localhost:8080/api/v1/register-user -d '{"user_id":"u","password":"p"}'
//
//	bindcloud -proto bin -addr :9090      # the binary persistent-connection front end instead
//
// Inside this module, binapi.Dial connects a client to the binary front
// end; the client implements the same cloud transport as the HTTP one.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	iotbind "github.com/iotbind/iotbind"
)

func main() {
	vendor := flag.String("vendor", "D-LINK", "vendor profile to serve (Table III name, secure, recommended, or worst-case)")
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	fleet := flag.Int("fleet", 5, "number of devices to pre-register")
	proto := flag.String("proto", "http", "front end to serve: http or bin")
	flag.Parse()

	if err := run(*vendor, *addr, *fleet, *proto); err != nil {
		fmt.Fprintln(os.Stderr, "bindcloud:", err)
		os.Exit(1)
	}
}

// newCloud builds the vendor's cloud over a registry of fleet devices
// generated from the vendor's ID scheme.
func newCloud(vendor string, fleet int) (iotbind.Profile, *iotbind.Cloud, []iotbind.DeviceRecord, error) {
	var profile iotbind.Profile
	switch vendor {
	case "secure":
		profile = iotbind.SecureReference()
	case "recommended":
		profile = iotbind.RecommendedPractice()
	case "worst-case":
		profile = iotbind.WorstCase()
	default:
		p, ok := iotbind.ByVendor(vendor)
		if !ok {
			return profile, nil, nil, fmt.Errorf("unknown vendor %q", vendor)
		}
		profile = p
	}

	gen, err := profile.IDs.Generator()
	if err != nil {
		return profile, nil, nil, err
	}
	registry := iotbind.NewRegistry()
	devices := make([]iotbind.DeviceRecord, fleet)
	for i := range devices {
		id, err := gen.Generate(uint64(1000 + i))
		if err != nil {
			return profile, nil, nil, err
		}
		devices[i] = iotbind.DeviceRecord{
			ID:            id,
			FactorySecret: fmt.Sprintf("factory-%04d", i),
			Model:         profile.DeviceType,
		}
		if err := registry.Add(devices[i]); err != nil {
			return profile, nil, nil, err
		}
	}
	cloud, err := iotbind.NewCloud(profile.Design, registry)
	return profile, cloud, devices, err
}

func run(vendor, addr string, fleet int, proto string) error {
	if proto != "http" && proto != "bin" {
		return fmt.Errorf("unknown proto %q (http or bin)", proto)
	}
	profile, cloud, devices, err := newCloud(vendor, fleet)
	if err != nil {
		return err
	}
	fmt.Printf("Serving %s (%s) cloud on %s\n", profile.Vendor, profile.Design.Name, addr)
	fmt.Printf("Design: auth=%v binding=%v unbind=%s\n",
		profile.Design.DeviceAuth, profile.Design.Binding, profile.Design.UnbindNotation())
	fmt.Println("Registered devices (the labels an attacker might copy):")
	for _, d := range devices {
		fmt.Printf("  %s (factory secret %s)\n", d.ID, d.FactorySecret)
	}

	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return frontEnd(proto, cloud, idleTimeout).Serve(l)
}

// idleTimeout is how long either front end keeps a connection that sends
// nothing: past it a silent or half-open client is dropped, so a fleet of
// them cannot hold sockets (and, on the binary pump path, goroutines)
// forever.
const idleTimeout = 2 * time.Minute

// readTimeout bounds reading one HTTP request, its body included.
const readTimeout = 30 * time.Second

// server is what both front ends are to run: serve on a listener, close.
type server interface {
	Serve(net.Listener) error
	Close() error
}

// frontEnd builds proto's front end over cloud, dropping a connection
// that stays idle for idle.
func frontEnd(proto string, cloud *iotbind.Cloud, idle time.Duration) server {
	if proto == "bin" {
		return iotbind.NewBinServer(cloud, iotbind.WithIdleTimeout(idle))
	}
	return &http.Server{
		Handler:           iotbind.NewHTTPServer(cloud),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idle,
	}
}
