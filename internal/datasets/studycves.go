package datasets

import (
	"slices"
	"sync"
	"time"
)

// StudyCVE is one row of the paper's Appendix E: a CVE observed being
// exploited by the telescope, with its publication-relative lifecycle
// offsets as measured by the paper.
type StudyCVE struct {
	// ID is the CVE identifier without the "CVE-" prefix.
	ID string
	// Published is the public-awareness date P (per Suciu et al. [44]).
	Published time.Time
	// Events is the number of exploit events attributed to the CVE.
	Events int
	// Description is the matching rule's message.
	Description string
	// Vendor is the affected software vendor (reconstructed from the
	// description; drives the vendor-diversity finding).
	Vendor string
	// CWE is the weakness category (reconstructed; drives CWE diversity).
	CWE string
	// Impact is the CVSS base score.
	Impact float64
	// DMinusP is fix deployment minus publication (D − P). The paper
	// equates D with F (IDS rule availability, installed immediately).
	DMinusP Duration
	// XMinusP is public exploit availability minus publication (X − P).
	XMinusP Duration
	// AMinusP is first telescope-observed attack minus publication (A − P).
	AMinusP Duration
	// Exploitability is the expected-exploitability percentile from Suciu
	// et al. [44]; -1 when unreported.
	Exploitability int
	// TalosDisclosed marks the CVEs originally disclosed by the IDS vendor
	// (the TRUFFLEHUNTER reports). Finding 2: 5 of 63.
	TalosDisclosed bool
}

// row builds a StudyCVE from the paper's table notation.
func row(id, pub string, events int, desc, vendor, cwe string, impact float64, dp, xp, ap string, expl int, talos bool) StudyCVE {
	return StudyCVE{
		ID:             id,
		Published:      mustDate(pub),
		Events:         events,
		Description:    desc,
		Vendor:         vendor,
		CWE:            cwe,
		Impact:         impact,
		DMinusP:        MustPaperDuration(dp),
		XMinusP:        MustPaperDuration(xp),
		AMinusP:        MustPaperDuration(ap),
		Exploitability: expl,
		TalosDisclosed: talos,
	}
}

// StudyCVEs returns the 63 CVEs of Appendix E in publication order. The
// table is parsed once per process; each call returns a fresh copy of it, so
// callers may mutate the slice.
func StudyCVEs() []StudyCVE { return slices.Clone(studyTable().rows) }

// studyIndex is the parsed Appendix E table with an id → row index.
type studyIndex struct {
	rows []StudyCVE
	byID map[string]int
}

// studyTable parses Appendix E on first use. Lookups on the read path (every
// lifecycle materialization joins each CVE against it) then cost a map probe
// instead of re-parsing 63 rows of dates and durations.
var studyTable = sync.OnceValue(func() studyIndex {
	rows := appendixE()
	byID := make(map[string]int, len(rows))
	for i, c := range rows {
		if _, dup := byID[c.ID]; !dup { // the first row wins, as a scan would
			byID[c.ID] = i
		}
	}
	return studyIndex{rows: rows, byID: byID}
})

// appendixE parses the paper's Appendix E rows.
func appendixE() []StudyCVE {
	return []StudyCVE{
		row("2021-22893", "2021-04-21", 2, "Pulse Connect Secure vulnerable URI access attempt", "Ivanti/Pulse Secure", "CWE-287", 10.0, "1d 0h", "-", "47d 15h", 100, false),
		row("2021-22204", "2021-04-23", 16, "ExifTool DjVu metadata command injection attempt", "ExifTool", "CWE-78", 7.8, "90d 12h", "20d 0h", "280d 22h", 100, false),
		row("2021-29441", "2021-04-27", 411, "Alibaba Nacos potential authentication bypass attempt", "Alibaba", "CWE-287", 9.8, "168d 17h", "-", "263d 8h", 85, false),
		row("2021-20090", "2021-04-29", 956, "Arcadyan routers path traversal attempt", "Arcadyan", "CWE-22", 9.8, "194d 22h", "-", "96d 21h", 88, false),
		row("2021-20091", "2021-04-29", 19, "Buffalo WSR router configuration injection attempt", "Buffalo", "CWE-78", 8.8, "194d 7h", "-", "352d 10h", -1, false),
		row("2021-1497", "2021-05-06", 7, "Cisco HyperFlex HX Installer command injection attempt", "Cisco", "CWE-78", 9.8, "0d 13h", "-", "188d 5h", 92, false),
		row("2021-1498", "2021-05-06", 4, "Cisco HyperFlex HX Data Platform command injection attempt", "Cisco", "CWE-78", 9.8, "0d 13h", "-", "110d 3h", 95, false),
		row("2021-31755", "2021-05-07", 1, "Tenda Router AC11 stack buffer overflow attempt", "Tenda", "CWE-121", 9.8, "248d 21h", "-", "186d 6h", 92, false),
		row("2021-31166", "2021-05-10", 1, "Microsoft Windows HTTP protocol stack remote code execution attempt", "Microsoft", "CWE-416", 9.8, "-", "313d 0h", "152d 4h", 100, false),
		row("2021-31207", "2021-05-10", 15, "Microsoft Exchange autodiscover server side request forgery attempt", "Microsoft", "CWE-918", 7.2, "64d 17h", "-", "104d 5h", 91, false),
		row("2021-32305", "2021-05-18", 1, "WebSVN search command injection attempt", "WebSVN", "CWE-78", 9.8, "226d 15h", "-", "518d 12h", 93, false),
		row("2021-21985", "2021-05-26", 32, "VMWare vSphere Client remote code execution attempt", "VMware", "CWE-20", 9.8, "10d 3h", "50d 0h", "31d 4h", 99, false),
		row("2021-35464", "2021-07-01", 5, "ForgeRock Open Access Manager remote code execution attempt", "ForgeRock", "CWE-502", 9.8, "14d 12h", "11d 0h", "1d 21h", 100, false),
		row("2021-21799", "2021-07-16", 1, "TRUFFLEHUNTER TALOS-2021-1270 attack attempt", "Advantech", "CWE-79", 6.1, "-121d 10h", "1d 0h", "474d 4h", 99, true),
		row("2021-21801", "2021-07-16", 2, "TRUFFLEHUNTER TALOS-2021-1272 attack attempt", "Advantech", "CWE-79", 6.1, "-119d 11h", "1d 0h", "354d 18h", 91, true),
		row("2021-21816", "2021-07-16", 4, "TRUFFLEHUNTER TALOS-2021-1281 attack attempt", "D-Link", "CWE-200", 4.3, "-79d 11h", "-", "165d 21h", 68, true),
		row("2021-26085", "2021-07-30", 4, "Atlassian Confluence information disclosure attempt", "Atlassian", "CWE-22", 5.3, "410d 17h", "-", "68d 19h", 78, false),
		row("2021-35395", "2021-08-16", 66, "Realtek Jungle SDK command injection attempt", "Realtek", "CWE-787", 9.8, "10d 13h", "-", "462d 22h", 85, false),
		row("2021-26084", "2021-08-26", 3179, "Atlassian Confluence OGNL injection remote code execution attempt", "Atlassian", "CWE-917", 9.8, "7d 12h", "15d 0h", "6d 6h", 100, false),
		row("2021-40539", "2021-09-07", 6, "Zoho ManageEngine ADSelfService Plus RestAPI authentication bypass attempt", "Zoho", "CWE-287", 9.8, "21d 17h", "80d 0h", "113d 19h", 100, false),
		row("2021-33045", "2021-09-09", 29, "Dahua Console Loopback potential authentication bypass attempt", "Dahua", "CWE-287", 9.8, "70d 18h", "-", "523d 6h", 79, false),
		row("2021-33044", "2021-09-09", 34, "Dahua Console NetKeyboard potential authentication bypass attempt", "Dahua", "CWE-287", 9.8, "70d 18h", "-", "47d 4h", 78, false),
		row("2021-40870", "2021-09-13", 2, "Aviatrix Controller PHP file injection attempt", "Aviatrix", "CWE-434", 9.8, "141d 14h", "-", "265d 11h", 92, false),
		row("2021-38647", "2021-09-15", 28, "Microsoft Windows Open Management Infrastructure remote code execution attempt", "Microsoft", "CWE-287", 9.8, "6d 13h", "44d 0h", "4d 20h", 100, false),
		row("2021-40438", "2021-09-16", 5, "Apache HTTP server SSRF attempt", "Apache", "CWE-918", 9.0, "105d 15h", "125d 0h", "32d 20h", 91, false),
		row("2021-22005", "2021-09-22", 5, "VMware vCenter Server file upload attempt", "VMware", "CWE-434", 9.8, "6d 17h", "16d 0h", "19d 6h", 100, false),
		row("2021-36260", "2021-09-22", 31117, "Hikvision webLanguage command injection vulnerability", "Hikvision", "CWE-78", 9.8, "49d 21h", "158d 0h", "30d 4h", 100, false),
		row("2021-39226", "2021-10-05", 3, "Grafana authentication bypass attempt", "Grafana", "CWE-287", 7.3, "336d 23h", "329d 0h", "330d 5h", 55, false),
		row("2021-41773", "2021-10-05", 969, "Apache HTTP Server httpd directory traversal attempt", "Apache", "CWE-22", 7.5, "2d 13h", "21d 0h", "1d 2h", 100, false),
		row("2021-27561", "2021-10-15", 724, "Yealink Device Management server side request forgery attempt", "Yealink", "CWE-918", 9.8, "-198d 11h", "-", "-220d 6h", 83, false),
		row("2021-20837", "2021-10-21", 2, "Movable Type CMS command injection attempt", "Six Apart", "CWE-78", 9.8, "47d 17h", "9d 0h", "93d 8h", 91, false),
		row("2021-40117", "2021-10-27", 19074, "Cisco ASA and FTD denial of service attempt", "Cisco", "CWE-400", 7.5, "1d 12h", "-", "355d 11h", 19, false),
		row("2021-41653", "2021-11-13", 354, "TP-Link TL-WR840N EU v5 command injection attempt", "TP-Link", "CWE-78", 9.8, "30d 21h", "-", "8d 18h", 84, false),
		row("2021-43798", "2021-12-07", 11, "Grafana getPluginAssets path traversal attempt", "Grafana", "CWE-22", 7.5, "3d 19h", "15d 0h", "2d 19h", 100, false),
		row("2021-44515", "2021-12-07", 2, "ManageEngine Desktop Central authentication bypass attempt", "Zoho", "CWE-287", 9.8, "35d 20h", "46d 0h", "212d 9h", 95, false),
		row("2021-20038", "2021-12-08", 4, "SonicWall SMA 100 remote unauthenticated buffer overflow attempt", "SonicWall", "CWE-787", 9.8, "188d 17h", "-", "65d 1h", 64, false),
		row("2021-44228", "2021-12-10", 6254, "Apache Log4j logging remote code execution attempt", "Apache", "CWE-917", 10.0, "0d 19h", "4d 0h", "0d 13h", 100, false),
		row("2021-45232", "2021-12-27", 2, "Apache APISIX Dashboard authentication bypass attempt", "Apache", "CWE-287", 9.8, "106d 19h", "-", "9d 17h", 74, false),
		row("2022-21796", "2022-01-28", 218, "TRUFFLEHUNTER TALOS-2022-1451 attack attempt", "Moxa", "CWE-787", 8.2, "-0d 7h", "-", "47d 16h", 61, true),
		row("2022-21199", "2022-01-28", 1, "TRUFFLEHUNTER TALOS-2022-1446 attack attempt", "Reolink", "CWE-330", 5.9, "-2d 11h", "-", "383d 19h", 68, true),
		row("2021-45382", "2022-02-17", 67, "D-Link router command injection attempt", "D-Link", "CWE-78", 9.8, "112d 14h", "-", "1d 5h", 87, false),
		row("2022-0543", "2022-02-18", 863, "Debian Redis Lua sandbox escape attempt", "Debian/Redis", "CWE-862", 10.0, "95d 21h", "40d 0h", "21d 20h", 100, false),
		row("2022-22947", "2022-03-03", 6, "Spring Cloud Gateway Spring Expression Language injection attempt", "VMware/Spring", "CWE-917", 10.0, "21d 12h", "150d 0h", "21d 21h", 100, false),
		row("2022-22963", "2022-03-31", 14, "Spring Cloud Function Spring Expression Language injection attempt", "VMware/Spring", "CWE-917", 9.8, "0d 14h", "1d 0h", "-1d 9h", 100, false),
		row("2022-22965", "2022-04-01", 107, "Java ClassLoader access attempt", "VMware/Spring", "CWE-94", 9.8, "-", "8d 0h", "-387d 14h", 100, false),
		row("2022-28219", "2022-04-05", 1, "Zoho ManageEngine ADAudit Plus XML external entity injection attempt", "Zoho", "CWE-611", 9.8, "92d 20h", "-", "138d 14h", 100, false),
		row("2022-22954", "2022-04-07", 859, "VMware Workspace ONE Access server side template injection attempt", "VMware", "CWE-94", 9.8, "42d 17h", "27d 0h", "10d 17h", 91, false),
		row("2022-29464", "2022-04-18", 5, "WSO2 multiple products directory traversal attempt", "WSO2", "CWE-22", 9.8, "9d 14h", "11d 1h", "19d 3h", 100, false),
		row("2022-0540", "2022-04-20", 1, "Atlassian Jira Seraph authentication bypass attempt", "Atlassian", "CWE-287", 9.8, "99d 13h", "-", "298d 7h", 94, false),
		row("2022-27925", "2022-04-21", 5, "Zimbra directory traversal remote code execution attempt", "Zimbra", "CWE-22", 7.2, "119d 15h", "-", "131d 6h", 100, false),
		row("2022-29499", "2022-04-26", 8, "MiVoice Connect command injection attempt", "Mitel", "CWE-20", 9.8, "70d 22h", "-", "61d 15h", 88, false),
		row("2022-1388", "2022-05-05", 501, "F5 iControl REST interface tm.util.bash invocation attempt", "F5", "CWE-306", 9.8, "-407d 11h", "8d 0h", "-410d 16h", 100, false),
		row("2022-28818", "2022-05-11", 7, "Adobe ColdFusion cross-site scripting attempt", "Adobe", "CWE-79", 6.1, "1d 13h", "-", "-299d 2h", 92, false),
		row("2022-30525", "2022-05-12", 136, "Zyxel Firewall command injection attempt", "Zyxel", "CWE-78", 9.8, "26d 14h", "3d 0h", "15d 17h", 100, false),
		row("2022-29583", "2022-05-13", 1, "NETGEAR ProSafe SSL VPN SQL injection attempt", "NETGEAR", "CWE-89", 9.8, "41d 14h", "-", "198d 17h", 91, false),
		row("2022-28938", "2022-05-18", 20, "Atlassian Confluence OGNL expression injection attempt", "Atlassian", "CWE-917", 9.8, "0d 23h", "2d 0h", "-444d 19h", 100, false),
		row("2022-26134", "2022-06-03", 50575, "Atlassian Confluence OGNL expression injection attempt", "Atlassian", "CWE-917", 8.8, "17d 14h", "52d 0h", "17d 16h", 100, false),
		row("2022-33891", "2022-07-18", 46, "Apache Spark command injection attempt", "Apache", "CWE-78", 9.8, "6d 14h", "11d 0h", "15d 7h", 100, false),
		row("2022-26138", "2022-07-20", 2, "Atlassian Confluence hardcoded credentials use attempt", "Atlassian", "CWE-798", 9.8, "45d 14h", "36d 0h", "65d 23h", 100, false),
		row("2022-35914", "2022-09-19", 6, "GLPI htmLawed php remote code execution attempt", "GLPI", "CWE-74", 8.8, "-0d 4h", "13d 0h", "89d 2h", 95, false),
		row("2022-41040", "2022-10-01", 2, "Microsoft Exchange Server remote code execution attempt", "Microsoft", "CWE-918", 9.8, "6d 17h", "10d 0h", "7d 15h", 100, false),
		row("2022-40684", "2022-10-08", 14, "Fortinet FortiOS and FortiProxy authentication bypass attempt", "Fortinet", "CWE-306", 9.8, "20d 14h", "26d 0h", "25d 23h", 100, false),
		row("2022-44877", "2023-01-05", 8, "CentOS Web Panel 7 unauthenticated command injection attempt", "Control Web Panel", "CWE-78", 9.8, "-", "-", "-", -1, false),
	}
}

// StudyCVEByID returns the study record for a CVE id ("YYYY-NNNN"), or nil.
// The record is a copy; callers may mutate it.
func StudyCVEByID(id string) *StudyCVE {
	t := studyTable()
	i, ok := t.byID[id]
	if !ok {
		return nil
	}
	c := t.rows[i]
	return &c
}

// TotalStudyEvents sums the per-CVE event counts.
func TotalStudyEvents() int {
	n := 0
	for _, c := range studyTable().rows {
		n += c.Events
	}
	return n
}
