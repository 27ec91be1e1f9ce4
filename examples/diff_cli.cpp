/**
 * @file
 * diff_cli — compare schema-stamped run reports with the
 * `cooprt::diff` attribution engine (DESIGN.md section 18).
 *
 *     # two report files (simulate_cli --json > file)
 *     diff_cli base.report.json coop.report.json
 *
 *     # whole directories (campaign_cli --report-dir)
 *     diff_cli runs/baseline/ runs/candidate/
 *
 *     # machine-readable / markdown exports
 *     diff_cli --json - base.json other.json
 *     diff_cli --markdown diff.md base.json other.json
 *
 * Two reports are comparable when their run keys agree on scene,
 * shader and resolution; differing fingerprints are the normal case
 * (the configuration change is what is being measured). A key
 * mismatch, unreadable input or a missing baseline exits 2, so
 * scripted gates can distinguish "regressed" from "not comparable".
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/build_info.hpp"
#include "diff/diff.hpp"

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage: diff_cli [options] <base> <other> [<other>...]\n"
        "\n"
        "  <base>/<other>   run-report JSON files (simulate_cli\n"
        "                   --json, campaign_cli --report-dir) or\n"
        "                   two directories of *.report.json\n"
        "\n"
        "options:\n"
        "  --json FILE|-    write the diff(s) as JSON lines\n"
        "  --markdown FILE  write a markdown export\n"
        "  --quiet          suppress the stdout tables\n"
        "  --version        print build provenance and exit\n"
        "\n"
        "exit: 0 = diffed; 2 = bad usage, unreadable input or\n"
        "      run-key mismatch\n");
    return 2;
}

void
printVersion(std::ostream &os)
{
    os << "cooprt diff_cli\n"
       << "  revision:   " << cooprt::build::kGitRevision
       << (cooprt::build::kGitDirty ? " (dirty)" : "") << "\n"
       << "  compiler:   " << cooprt::build::kCompiler << "\n"
       << "  build type: " << cooprt::build::kBuildType << "\n"
       << "  check:      "
       << (cooprt::build::kCheckEnabled ? "on" : "off") << "\n"
       << "  schema:     v" << cooprt::trace::kSchemaVersion << "\n";
}

/** Report-file pair to diff (dir mode pairs files by name). */
struct Pair
{
    std::string base;
    std::string other;
};

bool
collectPairs(const std::string &base, const std::string &other,
             std::vector<Pair> *pairs)
{
    namespace fs = std::filesystem;
    const bool base_dir = fs::is_directory(base);
    const bool other_dir = fs::is_directory(other);
    if (!fs::exists(base)) {
        std::fprintf(stderr, "[diff] no such input: %s\n",
                     base.c_str());
        return false;
    }
    if (!fs::exists(other)) {
        std::fprintf(stderr, "[diff] no such input: %s\n",
                     other.c_str());
        return false;
    }
    if (base_dir != other_dir) {
        std::fprintf(stderr,
                     "[diff] cannot compare a file with a directory "
                     "(%s vs %s)\n",
                     base.c_str(), other.c_str());
        return false;
    }
    if (!base_dir) {
        pairs->push_back({base, other});
        return true;
    }
    // Directory mode: align *.json by file name, sorted so output
    // order never depends on directory iteration order.
    std::vector<std::string> names;
    for (const auto &entry : fs::directory_iterator(base)) {
        if (!entry.is_regular_file())
            continue;
        const std::string name = entry.path().filename().string();
        if (name.size() >= 5 &&
            name.compare(name.size() - 5, 5, ".json") == 0)
            names.push_back(name);
    }
    std::sort(names.begin(), names.end());
    if (names.empty()) {
        std::fprintf(stderr, "[diff] no *.json reports under %s\n",
                     base.c_str());
        return false;
    }
    bool ok = true;
    for (const std::string &name : names) {
        const std::string counterpart = other + "/" + name;
        if (!fs::exists(counterpart)) {
            std::fprintf(stderr,
                         "[diff] %s has no counterpart under %s\n",
                         name.c_str(), other.c_str());
            ok = false;
            continue;
        }
        pairs->push_back({base + "/" + name, counterpart});
    }
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_out;
    std::string markdown_out;
    bool quiet = false;
    std::vector<std::string> inputs;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "[diff] %s needs a value\n",
                             flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--json")
            json_out = next("--json");
        else if (arg == "--markdown")
            markdown_out = next("--markdown");
        else if (arg == "--quiet")
            quiet = true;
        else if (arg == "--version") {
            printVersion(std::cout);
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            return usage();
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "[diff] unknown flag '%s'\n",
                         arg.c_str());
            return usage();
        } else {
            inputs.push_back(arg);
        }
    }
    if (inputs.size() < 2)
        return usage();
    if (inputs.size() > 2 &&
        std::filesystem::is_directory(inputs[0])) {
        std::fprintf(stderr,
                     "[diff] directory mode takes exactly two "
                     "directories\n");
        return 2;
    }

    // N-way: the first input anchors, every later one diffs against
    // it. Directory inputs expand to name-aligned file pairs.
    std::vector<Pair> pairs;
    bool inputs_ok = true;
    for (std::size_t i = 1; i < inputs.size(); ++i)
        inputs_ok &= collectPairs(inputs[0], inputs[i], &pairs);
    if (!inputs_ok || pairs.empty())
        return 2;

    std::ofstream json_file;
    std::ostream *json_os = nullptr;
    if (!json_out.empty()) {
        if (json_out == "-") {
            json_os = &std::cout;
            quiet = true; // keep stdout pure JSON lines
        } else {
            json_file.open(json_out);
            if (!json_file) {
                std::fprintf(stderr, "[diff] cannot write %s\n",
                             json_out.c_str());
                return 2;
            }
            json_os = &json_file;
        }
    }
    std::ofstream md_file;
    if (!markdown_out.empty()) {
        md_file.open(markdown_out);
        if (!md_file) {
            std::fprintf(stderr, "[diff] cannot write %s\n",
                         markdown_out.c_str());
            return 2;
        }
    }

    bool any_mismatch = false;
    bool first = true;
    for (const Pair &pair : pairs) {
        cooprt::diff::RunRecord base;
        cooprt::diff::RunRecord other;
        std::string error;
        if (!cooprt::diff::loadReportFile(pair.base, &base,
                                          &error) ||
            !cooprt::diff::loadReportFile(pair.other, &other,
                                          &error)) {
            std::fprintf(stderr, "[diff] %s\n", error.c_str());
            return 2;
        }
        const std::string mismatch =
            cooprt::diff::checkComparable(base, other);
        if (!mismatch.empty()) {
            std::fprintf(stderr, "[diff] run-key mismatch: %s (%s vs %s)\n",
                         mismatch.c_str(), base.source.c_str(),
                         other.source.c_str());
            any_mismatch = true;
            continue;
        }
        const cooprt::diff::RunDiff d =
            cooprt::diff::diffRuns(base, other);
        if (!quiet) {
            if (first) {
                printVersion(std::cout);
                std::cout << "\n";
            } else {
                std::cout << "\n";
            }
            cooprt::diff::writeText(std::cout, d);
        }
        if (json_os != nullptr)
            cooprt::diff::writeJson(*json_os, d);
        if (md_file.is_open()) {
            if (!first)
                md_file << "\n";
            cooprt::diff::writeMarkdown(md_file, d);
        }
        first = false;
    }
    return any_mismatch ? 2 : 0;
}
