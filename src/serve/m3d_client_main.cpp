/// \file m3d_client_main.cpp
/// Thin CLI over serve/client.hpp. Every command prints the server's JSON
/// response line to stdout (scripts parse it; quickcheck greps it) and
/// exits 0 on success, 1 on a rejected/failed request, 2 on usage errors.

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>

#include "serve/client.hpp"

namespace {

int usage() {
  std::cerr
      << "usage: m3d_client --socket PATH COMMAND [args]\n"
         "commands:\n"
         "  ping\n"
         "  submit [job flags]     submit a job, print {\"job_id\":N}\n"
         "  run    [job flags]     submit + wait + print the result\n"
         "  status JOB_ID\n"
         "  wait   JOB_ID [--timeout MS]\n"
         "  result JOB_ID\n"
         "  cancel JOB_ID\n"
         "  stats\n"
         "  shutdown\n"
         "job flags (submit/run):\n"
         "  --kind flow|eco        (default flow)\n"
         "  --flow macro3d|2d|s2d|bf_s2d|c2d\n"
         "  --tile small|large|tiny\n"
         "  --shrink N   --threads N   --priority N\n"
         "  --rounds N (max freq rounds)   --passes N (opt passes)\n"
         "  --pitch-scale X (ECO bump-pitch scale)\n"
         "  --place-engine E (b2b | analytic)\n"
         "  --no-signoff   --cold (ignore the warm cache)   --label S\n";
  return 2;
}

bool parseJobFlags(int argc, char** argv, int* i, m3d::serve::JobSpec* spec) {
  using m3d::serve::JobKind;
  for (; *i < argc; ++*i) {
    const std::string arg = argv[*i];
    const auto strArg = [&](std::string& dst) {
      if (*i + 1 >= argc) return false;
      dst = argv[++*i];
      return true;
    };
    const auto intArg = [&](int& dst) {
      std::string s;
      if (!strArg(s)) return false;
      char* end = nullptr;
      dst = static_cast<int>(std::strtol(s.c_str(), &end, 10));
      return end != s.c_str() && *end == '\0';
    };
    if (arg == "--kind") {
      std::string k;
      if (!strArg(k)) return false;
      if (k == "flow") {
        spec->kind = JobKind::kFlow;
      } else if (k == "eco") {
        spec->kind = JobKind::kEco;
      } else {
        return false;
      }
    } else if (arg == "--flow") {
      if (!strArg(spec->flow)) return false;
    } else if (arg == "--tile") {
      if (!strArg(spec->tile)) return false;
    } else if (arg == "--shrink") {
      if (!intArg(spec->shrink)) return false;
    } else if (arg == "--threads") {
      if (!intArg(spec->threads)) return false;
    } else if (arg == "--priority") {
      if (!intArg(spec->priority)) return false;
    } else if (arg == "--rounds") {
      if (!intArg(spec->maxFreqRounds)) return false;
    } else if (arg == "--passes") {
      if (!intArg(spec->optMaxPasses)) return false;
    } else if (arg == "--pitch-scale") {
      std::string s;
      if (!strArg(s)) return false;
      char* end = nullptr;
      spec->f2fPitchScale = std::strtod(s.c_str(), &end);
      if (end == s.c_str() || *end != '\0') return false;
    } else if (arg == "--place-engine") {
      if (!strArg(spec->placeEngine)) return false;
    } else if (arg == "--no-signoff") {
      spec->signoff = false;
    } else if (arg == "--cold") {
      spec->resume = false;
    } else if (arg == "--label") {
      if (!strArg(spec->label)) return false;
    } else {
      std::cerr << "m3d_client: unknown job flag '" << arg << "'\n";
      return false;
    }
  }
  return true;
}

/// One request whose raw response line should reach stdout.
int rawCommand(m3d::serve::Client& client, const std::string& line) {
  m3d::obs::JsonValue resp;
  std::string err;
  const bool ok = client.request(line, &resp, &err);
  // Re-serialize the parsed document? No -- the response is already one
  // JSON line; but request() consumed it. Print a faithful re-encoding.
  std::ostringstream os;
  m3d::obs::JsonWriter w(os, /*pretty=*/false);
  const std::function<void(const m3d::obs::JsonValue&)> emit =
      [&](const m3d::obs::JsonValue& v) {
        using T = m3d::obs::JsonValue::Type;
        switch (v.type) {
          case T::kNull: w.valueNull(); break;
          case T::kBool: w.value(v.boolean); break;
          case T::kNumber: w.value(v.number); break;
          case T::kString: w.value(std::string_view(v.str)); break;
          case T::kArray:
            w.beginArray();
            for (const auto& e : v.arr) emit(e);
            w.endArray();
            break;
          case T::kObject:
            w.beginObject();
            for (const auto& [k, e] : v.obj) {
              w.key(k);
              emit(e);
            }
            w.endObject();
            break;
        }
      };
  emit(resp);
  std::cout << os.str() << "\n";
  if (!ok && resp.find("ok") == nullptr) std::cerr << "m3d_client: " << err << "\n";
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socketPath;
  int i = 1;
  if (i + 1 < argc && std::string(argv[i]) == "--socket") {
    socketPath = argv[i + 1];
    i += 2;
  }
  if (socketPath.empty() || i >= argc) return usage();
  const std::string cmd = argv[i++];

  m3d::serve::Client client;
  std::string err;
  if (!client.connect(socketPath, &err)) {
    std::cerr << "m3d_client: " << err << "\n";
    return 1;
  }

  using m3d::serve::encodeJobOp;
  if (cmd == "ping" || cmd == "stats" || cmd == "shutdown") {
    return rawCommand(client, m3d::serve::encodeOp(cmd.c_str()));
  }

  if (cmd == "submit" || cmd == "run") {
    m3d::serve::JobSpec spec;
    if (!parseJobFlags(argc, argv, &i, &spec)) return usage();
    const std::string invalid = spec.validate();
    if (!invalid.empty()) {
      std::cerr << "m3d_client: bad job spec: " << invalid << "\n";
      return 2;
    }
    if (cmd == "submit") return rawCommand(client, m3d::serve::encodeSubmit(spec));
    m3d::serve::JobResult result;
    if (!client.runJob(spec, &result, &err)) {
      std::cerr << "m3d_client: " << err << "\n";
      return 1;
    }
    std::ostringstream os;
    m3d::obs::JsonWriter w(os, /*pretty=*/false);
    result.writeJson(w);
    std::cout << os.str() << "\n";
    return 0;
  }

  if (cmd == "status" || cmd == "wait" || cmd == "result" || cmd == "cancel") {
    if (i >= argc) return usage();
    char* end = nullptr;
    const auto jobId = static_cast<std::uint64_t>(std::strtoull(argv[i], &end, 10));
    if (end == argv[i] || *end != '\0') return usage();
    ++i;
    if (cmd == "wait") {
      int timeoutMs = 0;
      if (i + 1 < argc && std::string(argv[i]) == "--timeout") {
        timeoutMs = static_cast<int>(std::strtol(argv[i + 1], nullptr, 10));
        i += 2;
      }
      return rawCommand(client, m3d::serve::encodeWait(jobId, timeoutMs));
    }
    return rawCommand(client, encodeJobOp(cmd.c_str(), jobId));
  }

  std::cerr << "m3d_client: unknown command '" << cmd << "'\n";
  return usage();
}
