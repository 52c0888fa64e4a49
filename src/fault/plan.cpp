#include "plan.hpp"

#include <cstdio>

#include "support/parse.hpp"

namespace ticsim::fault {

namespace {

const char *const kBoundaryNames[kBoundaryCount] = {
    "boot", "commit-start", "commit", "restore", "send", "time",
};

const char *const kTearModeNames[3] = {"prefix", "garbage", "interleave"};

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        const auto end = s.find(sep, start);
        if (end == std::string::npos) {
            out.push_back(s.substr(start));
            break;
        }
        out.push_back(s.substr(start, end - start));
        start = end + 1;
    }
    return out;
}

bool
fail(std::string *err, const std::string &msg)
{
    if (err)
        *err = msg;
    return false;
}

/** "cut@commit:3+5000" | "cut@t:123456" */
bool
parseCut(const std::string &body, PowerCut &c, std::string *err)
{
    const auto colon = body.find(':');
    if (colon == std::string::npos)
        return fail(err, "cut: missing ':' in \"" + body + "\"");
    const std::string anchor = body.substr(0, colon);
    const std::string rest = body.substr(colon + 1);
    if (anchor == "t") {
        std::uint64_t at = 0;
        if (!parseU64(rest, at, kMaxTimeNs))
            return fail(err, "cut: bad absolute time \"" + rest + "\"");
        c.absolute = true;
        c.atNs = static_cast<TimeNs>(at);
        return true;
    }
    if (!parseBoundary(anchor, c.boundary))
        return fail(err, "cut: unknown boundary \"" + anchor + "\"");
    c.absolute = false;
    const auto plus = rest.find('+');
    const std::string occStr =
        plus == std::string::npos ? rest : rest.substr(0, plus);
    if (!parseU64(occStr, c.occurrence) || c.occurrence == 0)
        return fail(err, "cut: bad occurrence \"" + occStr + "\"");
    c.delayNs = 0;
    if (plus != std::string::npos) {
        std::uint64_t d = 0;
        if (!parseU64(rest.substr(plus + 1), d, kMaxTimeNs))
            return fail(err, "cut: bad delay in \"" + rest + "\"");
        c.delayNs = static_cast<TimeNs>(d);
    }
    return true;
}

/** "tear@hdr-store:2/prefix:8" */
bool
parseTear(const std::string &body, TornWrite &t, std::string *err)
{
    const auto parts = split(body, '/');
    if (parts.size() != 2)
        return fail(err, "tear: expected site:occ/mode:keep in \"" +
                             body + "\"");
    const auto c1 = parts[0].rfind(':');
    if (c1 == std::string::npos)
        return fail(err, "tear: missing occurrence in \"" + body + "\"");
    const std::string siteName = parts[0].substr(0, c1);
    bool found = false;
    for (int i = 0; i < mem::kStoreSiteCount; ++i) {
        const auto s = static_cast<mem::StoreSite>(i);
        if (siteName == mem::storeSiteName(s)) {
            t.site = s;
            found = true;
        }
    }
    if (!found)
        return fail(err, "tear: unknown site \"" + siteName + "\"");
    if (!parseU64(parts[0].substr(c1 + 1), t.occurrence) ||
        t.occurrence == 0)
        return fail(err, "tear: bad occurrence in \"" + body + "\"");
    const auto c2 = parts[1].find(':');
    if (c2 == std::string::npos)
        return fail(err, "tear: missing keepBytes in \"" + body + "\"");
    if (!parseTearMode(parts[1].substr(0, c2), t.mode))
        return fail(err, "tear: unknown mode \"" +
                             parts[1].substr(0, c2) + "\"");
    std::uint64_t keep = 0;
    if (!parseU64(parts[1].substr(c2 + 1), keep, UINT32_MAX))
        return fail(err, "tear: bad keepBytes in \"" + body + "\"");
    t.keepBytes = static_cast<std::uint32_t>(keep);
    return true;
}

/** "flip@1:tics.ckpt.hdr0+4&0x40" */
bool
parseFlip(const std::string &body, BitFlip &f, std::string *err)
{
    const auto colon = body.find(':');
    if (colon == std::string::npos)
        return fail(err, "flip: missing ':' in \"" + body + "\"");
    if (!parseU64(body.substr(0, colon), f.outageIndex) ||
        f.outageIndex == 0)
        return fail(err, "flip: bad outage index in \"" + body + "\"");
    const std::string rest = body.substr(colon + 1);
    const auto amp = rest.rfind('&');
    const auto plus = rest.rfind('+', amp);
    if (amp == std::string::npos || plus == std::string::npos ||
        plus > amp)
        return fail(err, "flip: expected region+offset&mask in \"" +
                             body + "\"");
    f.region = rest.substr(0, plus);
    if (f.region.empty())
        return fail(err, "flip: empty region in \"" + body + "\"");
    std::uint64_t off = 0, mask = 0;
    if (!parseU64(rest.substr(plus + 1, amp - plus - 1), off, UINT32_MAX))
        return fail(err, "flip: bad offset in \"" + body + "\"");
    std::string maskStr = rest.substr(amp + 1);
    int base = 10;
    if (maskStr.rfind("0x", 0) == 0 || maskStr.rfind("0X", 0) == 0) {
        maskStr = maskStr.substr(2);
        base = 16;
    }
    if (!parseU64(maskStr, mask, 0xFF, base) || mask == 0)
        return fail(err, "flip: bad mask in \"" + body + "\"");
    f.offset = static_cast<std::uint32_t>(off);
    f.mask = static_cast<std::uint8_t>(mask);
    return true;
}

} // namespace

const char *
boundaryName(Boundary b)
{
    return kBoundaryNames[static_cast<int>(b)];
}

bool
parseBoundary(const std::string &s, Boundary &out)
{
    for (int i = 0; i < kBoundaryCount; ++i) {
        if (s == kBoundaryNames[i]) {
            out = static_cast<Boundary>(i);
            return true;
        }
    }
    return false;
}

std::optional<Boundary>
boundaryOf(mem::SideEventKind k)
{
    switch (k) {
      case mem::SideEventKind::CkptCommitStart:
        return Boundary::CommitStart;
      case mem::SideEventKind::BootRestore:
        return Boundary::BootRestore;
      case mem::SideEventKind::PeripheralSend:
        return Boundary::PeripheralSend;
      case mem::SideEventKind::TimeRead:
        return Boundary::TimeRead;
      default:
        return std::nullopt;
    }
}

const char *
tearModeName(TearMode m)
{
    return kTearModeNames[static_cast<int>(m)];
}

bool
parseTearMode(const std::string &s, TearMode &out)
{
    for (int i = 0; i < 3; ++i) {
        if (s == kTearModeNames[i]) {
            out = static_cast<TearMode>(i);
            return true;
        }
    }
    return false;
}

std::string
FaultPlan::format() const
{
    std::string out;
    char buf[192];
    const auto add = [&out](const std::string &piece) {
        if (!out.empty())
            out += ';';
        out += piece;
    };
    for (const auto &c : cuts) {
        if (c.absolute) {
            std::snprintf(buf, sizeof buf, "cut@t:%llu",
                          static_cast<unsigned long long>(c.atNs));
        } else if (c.delayNs > 0) {
            std::snprintf(
                buf, sizeof buf, "cut@%s:%llu+%llu",
                boundaryName(c.boundary),
                static_cast<unsigned long long>(c.occurrence),
                static_cast<unsigned long long>(c.delayNs));
        } else {
            std::snprintf(
                buf, sizeof buf, "cut@%s:%llu", boundaryName(c.boundary),
                static_cast<unsigned long long>(c.occurrence));
        }
        add(buf);
    }
    for (const auto &t : tears) {
        std::snprintf(buf, sizeof buf, "tear@%s:%llu/%s:%u",
                      mem::storeSiteName(t.site),
                      static_cast<unsigned long long>(t.occurrence),
                      tearModeName(t.mode), t.keepBytes);
        add(buf);
    }
    for (const auto &f : flips) {
        // A region name has no length bound, so it stays out of buf.
        std::snprintf(buf, sizeof buf, "+%u&0x%02X", f.offset, f.mask);
        add("flip@" + std::to_string(f.outageIndex) + ':' + f.region + buf);
    }
    std::snprintf(buf, sizeof buf, "off:%llu",
                  static_cast<unsigned long long>(offNs));
    add(buf);
    return out;
}

bool
FaultPlan::parse(const std::string &s, FaultPlan &out, std::string *err)
{
    FaultPlan p;
    for (const auto &atom : split(s, ';')) {
        if (atom.empty())
            continue;
        if (atom.rfind("off:", 0) == 0) {
            std::uint64_t off = 0;
            if (!parseU64(atom.substr(4), off, kMaxTimeNs))
                return fail(err, "bad off time \"" + atom + "\"");
            p.offNs = static_cast<TimeNs>(off);
            continue;
        }
        const auto at = atom.find('@');
        if (at == std::string::npos)
            return fail(err, "atom without '@': \"" + atom + "\"");
        const std::string kind = atom.substr(0, at);
        const std::string body = atom.substr(at + 1);
        if (kind == "cut") {
            PowerCut c;
            if (!parseCut(body, c, err))
                return false;
            p.cuts.push_back(c);
        } else if (kind == "tear") {
            TornWrite t;
            if (!parseTear(body, t, err))
                return false;
            p.tears.push_back(t);
        } else if (kind == "flip") {
            BitFlip f;
            if (!parseFlip(body, f, err))
                return false;
            p.flips.push_back(std::move(f));
        } else {
            return fail(err, "unknown atom kind \"" + kind + "\"");
        }
    }
    out = std::move(p);
    return true;
}

} // namespace ticsim::fault
