package analysis

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/apps"
	"repro/internal/binder"
	"repro/internal/device"
	"repro/internal/parallel"
	"repro/internal/permissions"
	"repro/internal/services"
)

// VerifyConfig parameterizes the dynamic verification stage (§III-D).
type VerifyConfig struct {
	// Calls is how many times each candidate is invoked. The paper fires
	// 60,000 requests per interface; the simulator is deterministic, so
	// a few hundred suffice to classify growth. 0 means 300.
	Calls int
	// GCEvery triggers the victim's garbage collector every n calls
	// (the paper drives GC through DDMS). 0 means 50.
	GCEvery int
	// Workers sizes the verification worker pool (0 = one per CPU,
	// 1 = sequential). Every candidate is tested on its own device booted
	// from the template device's configuration, so the confirmed and
	// rejected sets are independent of the worker count.
	Workers int
}

// packageHints carries the manually-extracted parameters of §III-D
// ("we manually extract parameters, e.g., package name ... and feed them
// to IPC interfaces"), the manual step of the paper's semi-automatic
// test generation. The enqueueToast entry reproduces the Code-Snippet 3
// spoof.
var packageHints = map[string]string{
	"notification.enqueueToast": "android",
}

// Finding is a dynamically confirmed vulnerable interface.
type Finding struct {
	Service string
	Method  string
	Source  IPCSource
	// GrowthPerCall is the net JGR growth of the victim process per
	// call, surviving GC.
	GrowthPerCall float64
	Calls         int
	// Permission the test app needed ("" for none).
	Permission string
}

// FullName returns "service.method".
func (f Finding) FullName() string { return f.Service + "." + f.Method }

// Rejection is a candidate dynamic testing cleared.
type Rejection struct {
	Service string
	Method  string
	Reason  string
}

// VerifyResult is the dynamic stage's output.
type VerifyResult struct {
	Confirmed []Finding
	Rejected  []Rejection
}

// Verify drives every kept candidate against a simulated device from a
// fresh throw-away test app, watching the victim process's JGR table
// through repeated invocations and GC cycles, and classifies candidates
// whose table keeps growing as confirmed vulnerabilities. dev is the
// template: each candidate runs on its own device booted from the same
// configuration (same seed, same installed population), keeping every
// per-method measurement independent of the others. cfg.Workers sizes the
// verification pool; cancelling ctx aborts the sweep.
func Verify(ctx context.Context, dev *device.Device, kept []RiskyMethod, cfg VerifyConfig) (*VerifyResult, error) {
	if cfg.Calls == 0 {
		cfg.Calls = 300
	}
	if cfg.GCEvery == 0 {
		cfg.GCEvery = 50
	}
	bootCfg := dev.BootConfig()
	type verdict struct {
		finding *Finding
		rej     *Rejection
	}
	verdicts, err := parallel.Map(ctx, kept, cfg.Workers, func(_ context.Context, i int, rm RiskyMethod) (verdict, error) {
		if rm.IPC.Method == nil {
			return verdict{}, nil
		}
		shard, err := device.Boot(bootCfg)
		if err != nil {
			return verdict{}, fmt.Errorf("analysis: booting verification device: %w", err)
		}
		var v verdict
		switch rm.IPC.Source {
		case SourceServiceManager:
			v.finding, v.rej, err = verifySystem(shard, rm, i, cfg)
		case SourceBaseClass:
			v.finding, v.rej, err = verifyApp(shard, rm, i, cfg)
		default:
			return verdict{}, fmt.Errorf("analysis: candidate %s has unknown source", rm.IPC.FullName())
		}
		if err != nil {
			return verdict{}, err
		}
		return v, nil
	})
	if err != nil {
		return nil, err
	}
	res := &VerifyResult{}
	for _, v := range verdicts {
		if v.finding != nil {
			res.Confirmed = append(res.Confirmed, *v.finding)
		}
		if v.rej != nil {
			res.Rejected = append(res.Rejected, *v.rej)
		}
	}
	sort.Slice(res.Confirmed, func(i, j int) bool { return res.Confirmed[i].FullName() < res.Confirmed[j].FullName() })
	sort.Slice(res.Rejected, func(i, j int) bool {
		return res.Rejected[i].Service+res.Rejected[i].Method < res.Rejected[j].Service+res.Rejected[j].Method
	})
	return res, nil
}

// verifySystem tests one system-service candidate.
func verifySystem(dev *device.Device, rm RiskyMethod, seq int, cfg VerifyConfig) (*Finding, *Rejection, error) {
	serviceName, methodName := rm.IPC.Service, rm.IPC.Method.Name
	svc := dev.Service(serviceName)
	if svc == nil {
		return nil, &Rejection{Service: serviceName, Method: methodName, Reason: "service not running on device"}, nil
	}
	perm := permissions.Permission(rm.Permission)
	tester, err := dev.Apps().Install(fmt.Sprintf("com.jgre.tester%04d", seq))
	if err != nil {
		return nil, nil, fmt.Errorf("analysis: installing tester: %w", err)
	}
	if perm != "" {
		if err := dev.Permissions().Grant(tester.Uid(), perm); err != nil {
			return nil, &Rejection{Service: serviceName, Method: methodName,
				Reason: "permission not obtainable: " + string(perm)}, nil
		}
	}
	defer tester.ForceStop("verification done")

	client, err := dev.NewClient(tester, serviceName)
	if err != nil {
		return nil, nil, fmt.Errorf("analysis: client for %s: %w", serviceName, err)
	}
	pkg := tester.Package()
	if hint, ok := packageHints[serviceName+"."+methodName]; ok {
		pkg = hint
	}
	victim := svc.Host().VM()
	victim.GC()
	before := victim.GlobalRefCount()

	quotaHits := 0
	for i := 0; i < cfg.Calls; i++ {
		err := client.RegisterAs(methodName, pkg, client.NewToken())
		switch {
		case err == nil:
		case errors.Is(err, services.ErrQuotaExceeded):
			quotaHits++
		case isPermissionDenied(err):
			return nil, &Rejection{Service: serviceName, Method: methodName, Reason: err.Error()}, nil
		default:
			return nil, nil, fmt.Errorf("analysis: invoking %s.%s: %w", serviceName, methodName, err)
		}
		if (i+1)%cfg.GCEvery == 0 {
			victim.GC()
		}
	}
	victim.GC()
	growth := float64(victim.GlobalRefCount()-before) / float64(cfg.Calls)

	if quotaHits > 0 && growth < 0.5 {
		return nil, &Rejection{Service: serviceName, Method: methodName,
			Reason: fmt.Sprintf("per-process constraint held (%d refusals, growth %.2f/call)", quotaHits, growth)}, nil
	}
	if growth < 0.5 {
		return nil, &Rejection{Service: serviceName, Method: methodName,
			Reason: fmt.Sprintf("JGR reclaimed (growth %.2f/call)", growth)}, nil
	}
	return &Finding{
		Service: serviceName, Method: methodName, Source: rm.IPC.Source,
		GrowthPerCall: growth, Calls: cfg.Calls, Permission: string(perm),
	}, nil, nil
}

// verifyApp tests one app-service candidate against the device's
// published app services.
func verifyApp(dev *device.Device, rm RiskyMethod, seq int, cfg VerifyConfig) (*Finding, *Rejection, error) {
	methodName := rm.IPC.Method.Name
	regName, appSvc := resolveAppService(dev, rm)
	if appSvc == nil {
		return nil, &Rejection{Service: rm.IPC.Service, Method: methodName, Reason: "app service not installed on device"}, nil
	}
	code, ok := appSvc.Code(methodName)
	if !ok {
		return nil, &Rejection{Service: regName, Method: methodName, Reason: "method not exported"}, nil
	}
	tester, err := dev.Apps().Install(fmt.Sprintf("com.jgre.tester%04d", seq))
	if err != nil {
		return nil, nil, fmt.Errorf("analysis: installing tester: %w", err)
	}
	defer tester.ForceStop("verification done")

	tp := tester.Start()
	ref, err := dev.AppServices().Bind(regName, tp)
	if err != nil {
		return nil, nil, fmt.Errorf("analysis: binding %s: %w", regName, err)
	}
	victim := appSvc.Owner().Proc().VM()
	victim.GC()
	before := victim.GlobalRefCount()
	for i := 0; i < cfg.Calls; i++ {
		data := binder.NewParcel()
		data.WriteStrongBinder(dev.Driver().NewLocalBinder(tp, "android.os.Binder", nil))
		if err := ref.Binder().Transact(code, data, nil); err != nil {
			return nil, nil, fmt.Errorf("analysis: invoking %s.%s: %w", regName, methodName, err)
		}
		if (i+1)%cfg.GCEvery == 0 {
			victim.GC()
		}
	}
	victim.GC()
	growth := float64(victim.GlobalRefCount()-before) / float64(cfg.Calls)
	if growth < 0.5 {
		return nil, &Rejection{Service: regName, Method: methodName,
			Reason: fmt.Sprintf("JGR reclaimed (growth %.2f/call)", growth)}, nil
	}
	return &Finding{
		Service: regName, Method: methodName, Source: rm.IPC.Source,
		GrowthPerCall: growth, Calls: cfg.Calls,
	}, nil, nil
}

// resolveAppService maps a base-class candidate (its concrete class) to a
// published app service: the class must live under the publishing app's
// package and the service must export the method.
func resolveAppService(dev *device.Device, rm RiskyMethod) (string, *apps.AppService) {
	for _, name := range dev.AppServices().Names() {
		pkg := name[:strings.IndexByte(name, '/')]
		if !strings.HasPrefix(rm.IPC.Class, pkg+".") {
			continue
		}
		svc := dev.AppService(name)
		if svc == nil {
			continue
		}
		if _, ok := svc.Code(rm.IPC.Method.Name); ok {
			return name, svc
		}
	}
	return "", nil
}

func isPermissionDenied(err error) bool {
	var de *permissions.DeniedError
	return errors.As(err, &de)
}
