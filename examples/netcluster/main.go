// Netcluster: the full networked deployment of Figure 1(b) inside one
// process — a Data Monitor multicasting UDP datagrams to two Condition
// Evaluator replicas (one behind a deterministically lossy front link),
// both forwarding alerts to the Alert Displayer over the process's one TCP
// back link, a stream id per replica. Everything uses real sockets on
// loopback; the same binaries are available as separate
// processes via cmd/condmon-dm, cmd/condmon-ce and cmd/condmon-ad.
//
// Run with:
//
//	go run ./examples/netcluster
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"condmon/internal/ad"
	"condmon/internal/ce"
	"condmon/internal/cond"
	"condmon/internal/link"
	"condmon/internal/transport"
	"condmon/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Alert Displayer: TCP listener with AD-1 duplicate suppression.
	adl, err := transport.ListenMux("127.0.0.1:0", transport.MuxListenerOptions{})
	if err != nil {
		return err
	}
	defer adl.Close()
	snd, err := transport.DialMux(adl.Addr(), transport.MuxSenderOptions{})
	if err != nil {
		return err
	}
	defer func() { _ = snd.Close() }()

	// Two CE replicas on UDP endpoints; CE2's front link loses the 4th
	// and 7th sensor readings.
	recv1, err := transport.ListenUDP("127.0.0.1:0", transport.UDPReceiverOptions{})
	if err != nil {
		return err
	}
	defer recv1.Close()
	recv2, err := transport.ListenUDP("127.0.0.1:0", transport.UDPReceiverOptions{
		ForcedLoss: link.NewDropSeqNos("x", 4, 7),
	})
	if err != nil {
		return err
	}
	defer recv2.Close()

	overheat := cond.NewOverheat("x")
	var ceWG sync.WaitGroup
	startCE := func(id string, stream uint32, recv *transport.UDPReceiver) error {
		eval, err := ce.New(id, overheat)
		if err != nil {
			return err
		}
		ceWG.Add(1)
		go func() {
			defer ceWG.Done()
			for u := range recv.Updates() {
				a, fired, err := eval.Feed(u)
				if err != nil {
					log.Printf("%s: %v", id, err)
					return
				}
				if fired {
					if err := snd.Send(stream, a); err != nil {
						return
					}
				}
			}
		}()
		return nil
	}
	if err := startCE("CE1", 1, recv1); err != nil {
		return err
	}
	if err := startCE("CE2", 2, recv2); err != nil {
		return err
	}

	// Data Monitor: publish a reactor trace to both replicas over UDP.
	pub, err := transport.NewUDPPublisher(recv1.Addr(), recv2.Addr())
	if err != nil {
		return err
	}
	defer pub.Close()

	trace := workload.Generate("x", &workload.Sine{Base: 3000, Amplitude: 150, Period: 6}, 12)
	fmt.Println("DM publishing", len(trace), "readings over UDP to", recv1.Addr(), "and", recv2.Addr())
	for _, u := range trace {
		if err := pub.Publish(u); err != nil {
			return err
		}
		time.Sleep(5 * time.Millisecond) // pace datagrams on loopback
	}

	// Let in-flight datagrams drain, then close the front links so the CE
	// goroutines exit before the AD tallies up.
	time.Sleep(200 * time.Millisecond)
	recv1.Close()
	recv2.Close()
	ceWG.Wait()
	if err := snd.Flush(); err != nil {
		return err
	}

	filter := ad.NewAD1()
	displayed, suppressed := 0, 0
	timeout := time.After(2 * time.Second)
	fmt.Println("\nAlert Displayer output (AD-1):")
	for {
		select {
		case sa := <-adl.Alerts():
			a := sa.Alert
			if ad.Offer(filter, a) {
				displayed++
				fmt.Printf("  ALERT %v from %s (reading %g)\n", a, a.Source, a.Histories["x"].Latest().Value)
			} else {
				suppressed++
			}
		case <-timeout:
			fmt.Printf("\ndisplayed %d alerts, suppressed %d duplicates", displayed, suppressed)
			d2, f2 := recv2.Stats()
			fmt.Printf("; CE2's lossy link force-dropped %d and discarded %d datagrams\n", f2, d2)
			return nil
		}
	}
}
