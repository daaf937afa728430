package catalog

// services is the 104-service census of AOSP 6.0.1 (paper §I: "among the
// 104 system services in Android 6.0.1, 32 system services have 54
// vulnerabilities"). Names follow `service list` on a 6.0.1 build; the
// implementing classes are the AOSP ones for the services the paper
// discusses and representative ones elsewhere. Five services are native
// (§III-A: "we discover 5 native system services whose classes provide
// IPC interfaces through the ServiceManager::addService native method");
// they run outside system_server in mediaserver or their own daemon.
var services = []Service{
	// Services with vulnerable interfaces (Tables I–III). All run in
	// system_server unless noted.
	{Name: "location", Class: "com.android.server.LocationManagerService"},
	{Name: "sip", Class: "com.android.server.sip.SipService"},
	{Name: "midi", Class: "com.android.server.midi.MidiService"},
	{Name: "content", Class: "com.android.server.content.ContentService"},
	{Name: "mount", Class: "com.android.server.MountService"},
	{Name: "appops", Class: "com.android.server.AppOpsService"},
	{Name: "bluetooth_manager", Class: "com.android.server.BluetoothManagerService"},
	{Name: "audio", Class: "com.android.server.audio.AudioService"},
	{Name: "country_detector", Class: "com.android.server.CountryDetectorService"},
	{Name: "power", Class: "com.android.server.power.PowerManagerService"},
	{Name: "input_method", Class: "com.android.server.InputMethodManagerService"},
	{Name: "accessibility", Class: "com.android.server.accessibility.AccessibilityManagerService"},
	{Name: "print", Class: "com.android.server.print.PrintManagerService"},
	{Name: "package", Class: "com.android.server.pm.PackageManagerService"},
	{Name: "telephony.registry", Class: "com.android.server.TelephonyRegistry"},
	{Name: "media_session", Class: "com.android.server.media.MediaSessionService"},
	{Name: "media_router", Class: "com.android.server.media.MediaRouterService"},
	{Name: "media_projection", Class: "com.android.server.media.projection.MediaProjectionManagerService"},
	{Name: "input", Class: "com.android.server.input.InputManagerService"},
	{Name: "window", Class: "com.android.server.wm.WindowManagerService"},
	{Name: "wallpaper", Class: "com.android.server.wallpaper.WallpaperManagerService"},
	{Name: "fingerprint", Class: "com.android.server.fingerprint.FingerprintService"},
	{Name: "textservices", Class: "com.android.server.TextServicesManagerService"},
	{Name: "network_management", Class: "com.android.server.NetworkManagementService"},
	{Name: "connectivity", Class: "com.android.server.ConnectivityService"},
	{Name: "activity", Class: "com.android.server.am.ActivityManagerService"},
	{Name: "clipboard", Class: "com.android.server.clipboard.ClipboardService"},
	{Name: "launcherapps", Class: "com.android.server.pm.LauncherAppsService"},
	{Name: "tv_input", Class: "com.android.server.tv.TvInputManagerService"},
	{Name: "ethernet", Class: "com.android.server.ethernet.EthernetServiceImpl"},
	{Name: "wifi", Class: "com.android.server.wifi.WifiServiceImpl"},
	{Name: "notification", Class: "com.android.server.notification.NotificationManagerService"},

	// Remaining (non-vulnerable) system_server services.
	{Name: "account", Class: "com.android.server.accounts.AccountManagerService"},
	{Name: "alarm", Class: "com.android.server.AlarmManagerService"},
	{Name: "appwidget", Class: "com.android.server.appwidget.AppWidgetServiceImpl"},
	{Name: "assetatlas", Class: "com.android.server.AssetAtlasService"},
	{Name: "backup", Class: "com.android.server.backup.BackupManagerService"},
	{Name: "battery", Class: "com.android.server.BatteryService"},
	{Name: "batteryproperties", Class: "com.android.server.BatteryPropertiesService"},
	{Name: "batterystats", Class: "com.android.server.am.BatteryStatsService"},
	{Name: "carrier_config", Class: "com.android.phone.CarrierConfigLoader"},
	{Name: "commontime_management", Class: "com.android.server.CommonTimeManagementService"},
	{Name: "consumer_ir", Class: "com.android.server.ConsumerIrService"},
	{Name: "cpuinfo", Class: "com.android.server.am.ActivityManagerService$CpuBinder"},
	{Name: "dbinfo", Class: "com.android.server.am.ActivityManagerService$DbBinder"},
	{Name: "device_policy", Class: "com.android.server.devicepolicy.DevicePolicyManagerService"},
	{Name: "deviceidle", Class: "com.android.server.DeviceIdleController"},
	{Name: "devicestoragemonitor", Class: "com.android.server.storage.DeviceStorageMonitorService"},
	{Name: "diskstats", Class: "com.android.server.DiskStatsService"},
	{Name: "display", Class: "com.android.server.display.DisplayManagerService"},
	{Name: "dreams", Class: "com.android.server.dreams.DreamManagerService"},
	{Name: "dropbox", Class: "com.android.server.DropBoxManagerService"},
	{Name: "gatekeeper", Class: "com.android.server.GateKeeperService"},
	{Name: "gfxinfo", Class: "com.android.server.am.ActivityManagerService$GraphicsBinder"},
	{Name: "graphicsstats", Class: "com.android.server.GraphicsStatsService"},
	{Name: "hdmi_control", Class: "com.android.server.hdmi.HdmiControlService"},
	{Name: "imms", Class: "com.android.internal.telephony.ImsSmsDispatcher"},
	{Name: "ims", Class: "com.android.ims.ImsManagerService"},
	{Name: "iphonesubinfo", Class: "com.android.phone.PhoneInterfaceManager$SubInfo"},
	{Name: "isms", Class: "com.android.internal.telephony.UiccSmsController"},
	{Name: "isub", Class: "com.android.internal.telephony.SubscriptionController"},
	{Name: "jobscheduler", Class: "com.android.server.job.JobSchedulerService"},
	{Name: "keystore", Class: "com.android.server.KeyStoreService"},
	{Name: "lock_settings", Class: "com.android.server.LockSettingsService"},
	{Name: "meminfo", Class: "com.android.server.am.ActivityManagerService$MemBinder"},
	{Name: "media.resource_manager", Class: "com.android.server.media.MediaResourceManagerService"},
	{Name: "netpolicy", Class: "com.android.server.net.NetworkPolicyManagerService"},
	{Name: "netstats", Class: "com.android.server.net.NetworkStatsService"},
	{Name: "network_score", Class: "com.android.server.NetworkScoreService"},
	{Name: "nfc", Class: "com.android.nfc.NfcService", OwnProcess: "com.android.nfc"},
	{Name: "pac_proxy", Class: "com.android.server.connectivity.PacManager"},
	{Name: "permission", Class: "com.android.server.am.ActivityManagerService$PermissionController"},
	{Name: "persistent_data_block", Class: "com.android.server.PersistentDataBlockService"},
	{Name: "phone", Class: "com.android.phone.PhoneInterfaceManager"},
	{Name: "processinfo", Class: "com.android.server.am.ProcessInfoService"},
	{Name: "procstats", Class: "com.android.server.am.ProcessStatsService"},
	{Name: "recovery", Class: "com.android.server.RecoverySystemService"},
	{Name: "restrictions", Class: "com.android.server.restrictions.RestrictionsManagerService"},
	{Name: "rttmanager", Class: "com.android.server.wifi.RttService"},
	{Name: "samplingprofiler", Class: "com.android.server.SamplingProfilerService"},
	{Name: "scheduling_policy", Class: "com.android.server.SchedulingPolicyService"},
	{Name: "search", Class: "com.android.server.search.SearchManagerService"},
	{Name: "serial", Class: "com.android.server.SerialService"},
	{Name: "servicediscovery", Class: "com.android.server.NsdService"},
	{Name: "simphonebook", Class: "com.android.internal.telephony.IccPhoneBookInterfaceManagerProxy"},
	{Name: "soundtrigger", Class: "com.android.server.soundtrigger.SoundTriggerService"},
	{Name: "statusbar", Class: "com.android.server.statusbar.StatusBarManagerService"},
	{Name: "telecom", Class: "com.android.server.telecom.TelecomServiceImpl"},
	{Name: "trust", Class: "com.android.server.trust.TrustManagerService"},
	{Name: "uimode", Class: "com.android.server.UiModeManagerService"},
	{Name: "updatelock", Class: "com.android.server.UpdateLockService"},
	{Name: "usagestats", Class: "com.android.server.usage.UsageStatsService"},
	{Name: "usb", Class: "com.android.server.usb.UsbService"},
	{Name: "user", Class: "com.android.server.pm.UserManagerService"},
	{Name: "vibrator", Class: "com.android.server.VibratorService"},
	{Name: "voiceinteraction", Class: "com.android.server.voiceinteraction.VoiceInteractionManagerService"},
	{Name: "webviewupdate", Class: "com.android.server.webkit.WebViewUpdateService"},
	{Name: "wifip2p", Class: "com.android.server.wifi.p2p.WifiP2pServiceImpl"},
	{Name: "wifiscanner", Class: "com.android.server.wifi.WifiScanningService"},

	// The five native services (registered via the native
	// ServiceManager::addService), hosted outside system_server.
	{Name: "media.player", Class: "android::MediaPlayerService", Native: true, OwnProcess: "mediaserver"},
	{Name: "media.camera", Class: "android::CameraService", Native: true, OwnProcess: "mediaserver"},
	{Name: "media.audio_flinger", Class: "android::AudioFlinger", Native: true, OwnProcess: "mediaserver"},
	{Name: "media.audio_policy", Class: "android::AudioPolicyService", Native: true, OwnProcess: "mediaserver"},
	{Name: "sensorservice", Class: "android::SensorService", Native: true, OwnProcess: "system_server"},
}

// Services returns the full 104-service census. The returned slice is a
// copy; callers may reorder it freely.
func Services() []Service {
	out := make([]Service, len(services))
	copy(out, services)
	return out
}

// NumServices returns the size of the census.
func NumServices() int { return len(services) }

// ServiceAt returns census row i, 0 ≤ i < NumServices(), in Services'
// order. It is the read-only way to range over the census without
// copying it, for code that runs on every boot; callers that keep or
// sort the rows take Services' copy.
func ServiceAt(i int) Service { return services[i] }

// ServiceByName returns the census entry for name.
func ServiceByName(name string) (Service, bool) {
	for _, s := range services {
		if s.Name == name {
			return s, true
		}
	}
	return Service{}, false
}

// NativeServices returns the native-code services.
func NativeServices() []Service {
	var out []Service
	for _, s := range services {
		if s.Native {
			out = append(out, s)
		}
	}
	return out
}
