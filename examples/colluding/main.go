// Colluding: reproduce the paper's multi-app attack scenario (§V-C,
// Fig. 9): four colluding malicious apps each flood a different vulnerable
// interface while an IPC-heavy-but-benign app hammers an innocent method;
// the JGRE Defender must rank and kill exactly the colluders.
//
// Run with: go run ./examples/colluding
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/defense"
	"repro/internal/device"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)

	dev, err := device.Boot(device.Config{Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	def, err := defense.New(dev, defense.Config{KeepRaw: true})
	if err != nil {
		log.Fatal(err)
	}
	sched := workload.NewScheduler(dev)

	// Ten ordinary apps going about their business.
	if _, err := workload.Population(dev, sched, 10, 42, 2*time.Second); err != nil {
		log.Fatal(err)
	}

	// Four colluders on four different vulnerable interfaces.
	targets := []string{
		"audio.startWatchingRoutes",
		"clipboard.addPrimaryClipChangedListener",
		"midi.registerListener",
		"content.registerContentObserver",
	}
	for i, tgt := range targets {
		app, err := dev.Apps().Install(fmt.Sprintf("com.collude.app%d", i))
		if err != nil {
			log.Fatal(err)
		}
		atk, err := workload.NewAttacker(dev, app, tgt)
		if err != nil {
			log.Fatal(err)
		}
		sched.Add(atk)
		fmt.Printf("colluder %s (uid %d) attacks %s\n", app.Package(), app.Uid(), tgt)
	}

	// The busy bystander: benign IPC every 0–100 ms.
	chattyApp, err := dev.Apps().Install("com.chatty.app")
	if err != nil {
		log.Fatal(err)
	}
	chatty, err := workload.NewChattyApp(dev, chattyApp, 7)
	if err != nil {
		log.Fatal(err)
	}
	sched.Add(chatty)
	fmt.Printf("bystander %s (uid %d) fires benign IPC with 0-100 ms gaps\n\n", chattyApp.Package(), chattyApp.Uid())

	sched.Run(func() bool { return len(def.History()) > 0 }, 5_000_000)

	hist := def.History()
	if len(hist) == 0 {
		log.Fatal("defender never engaged")
	}
	det := hist[0]
	fmt.Printf("defender engaged at t=%.1fs; %d records analysed in %v\n",
		det.EngagedAt.Seconds(), det.Records, det.AnalysisTime)
	fmt.Println("ranking (suspicious IPC calls):")
	for i, s := range det.Scores {
		if i == 6 {
			break
		}
		fmt.Printf("  #%d uid %d %-22s %8d\n", i+1, s.Uid, s.Package, s.Score)
	}
	fmt.Printf("killed: %v\n", det.Killed)
	fmt.Printf("bystander survived: %v, chatty calls made: %d\n", chattyApp.Running(), chatty.Calls())
	fmt.Printf("system_server recovered: %v (JGR now %d), soft reboots: %d\n",
		det.Recovered, dev.SystemServer().VM().GlobalRefCount(), dev.SoftReboots())
}
