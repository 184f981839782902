#include "simrank/common/flags.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace simrank {
namespace {

/// Parses `args` (without a program name) into `flags`.
Status ParseArgs(FlagSet& flags, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return flags.Parse(static_cast<int>(args.size()), args.data(), 1);
}

/// Counts the non-overlapping occurrences of `needle` in `text`.
size_t Count(const std::string& text, const std::string& needle) {
  size_t count = 0;
  for (size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

struct Targets {
  uint16_t port = 8080;
  uint32_t threads = 4;
  uint64_t bytes = 0;
  double fraction = 0.5;
  std::string path;
  bool mmap = false;
  bool sync = true;
  std::optional<uint32_t> query;
};

FlagSet MakeFlags(Targets* t) {
  FlagSet flags("prog sub", "A test command.");
  flags.Add("--port", "PORT", &t->port, "TCP port")
      .Add("--threads", "T", &t->threads, "worker threads")
      .Add("--bytes", "N", &t->bytes, "a byte budget")
      .Add("--fraction", "F", &t->fraction, "a share")
      .Add("--path", "PATH", &t->path, "a file")
      .Switch("--mmap", &t->mmap, "map the file")
      .Switch("--no-sync", &t->sync, "skip fsync")
      .Add("--query", "V", &t->query, "a vertex");
  return flags;
}

TEST(FlagSetTest, BindsEveryTypeInBothValueForms) {
  Targets t;
  FlagSet flags = MakeFlags(&t);
  ASSERT_TRUE(ParseArgs(flags, {"--port=9", "--threads", "12", "--bytes",
                                "18446744073709551615", "--fraction=0.25",
                                "--path", "/x/y", "--mmap", "--no-sync",
                                "--query=3"})
                  .ok());
  EXPECT_EQ(t.port, 9);
  EXPECT_EQ(t.threads, 12u);
  EXPECT_EQ(t.bytes, UINT64_MAX);
  EXPECT_EQ(t.fraction, 0.25);
  EXPECT_EQ(t.path, "/x/y");
  EXPECT_TRUE(t.mmap);
  EXPECT_FALSE(t.sync);
  ASSERT_TRUE(t.query.has_value());
  EXPECT_EQ(*t.query, 3u);
  EXPECT_TRUE(flags.seen("--port"));
  EXPECT_FALSE(flags.help_requested());
}

TEST(FlagSetTest, UntouchedTargetsKeepTheirDefaults) {
  Targets t;
  FlagSet flags = MakeFlags(&t);
  ASSERT_TRUE(ParseArgs(flags, {"--path=p"}).ok());
  EXPECT_EQ(t.port, 8080);
  EXPECT_EQ(t.threads, 4u);
  EXPECT_TRUE(t.sync);
  EXPECT_FALSE(t.query.has_value());
  EXPECT_FALSE(flags.seen("--port"));
}

TEST(FlagSetTest, NumbersMustFitTheirTarget) {
  struct Case {
    const char* arg;
    const char* flag;
  };
  for (const Case& c : {Case{"--threads=4294967296", "--threads"},
                        Case{"--threads=4294967297", "--threads"},
                        Case{"--port=65536", "--port"},
                        Case{"--port=-1", "--port"},
                        Case{"--threads=abc", "--threads"},
                        Case{"--threads=12x", "--threads"},
                        Case{"--bytes=18446744073709551616", "--bytes"},
                        Case{"--fraction=half", "--fraction"},
                        Case{"--query=4294967296", "--query"}}) {
    Targets t;
    FlagSet flags = MakeFlags(&t);
    const Status status = ParseArgs(flags, {c.arg});
    ASSERT_FALSE(status.ok()) << c.arg;
    // The error names the command, the flag and the value.
    EXPECT_NE(status.message().find(std::string("prog sub: ") + c.arg),
              std::string::npos)
        << status.message();
    EXPECT_EQ(t.threads, 4u) << c.arg;
    EXPECT_EQ(t.port, 8080) << c.arg;
    EXPECT_FALSE(t.query.has_value()) << c.arg;
  }
  Targets t;
  FlagSet flags = MakeFlags(&t);
  ASSERT_TRUE(ParseArgs(flags, {"--threads=4294967295", "--port=65535"}).ok());
  EXPECT_EQ(t.threads, UINT32_MAX);
  EXPECT_EQ(t.port, UINT16_MAX);
}

TEST(FlagSetTest, SwitchesRefuseAValue) {
  Targets t;
  FlagSet flags = MakeFlags(&t);
  const Status status = ParseArgs(flags, {"--mmap=true"});
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("--mmap=true"), std::string::npos);
  EXPECT_FALSE(t.mmap);
}

TEST(FlagSetTest, RejectsUnknownMissingAndRepeatedFlags) {
  {
    Targets t;
    FlagSet flags = MakeFlags(&t);
    const Status status = ParseArgs(flags, {"--bogus=1"});
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("unknown flag --bogus=1"),
              std::string::npos)
        << status.message();
  }
  for (const auto& args : {std::vector<const char*>{"--path"},
                           std::vector<const char*>{"--path="},
                           std::vector<const char*>{"--path", "--mmap"}}) {
    Targets t;
    FlagSet flags = MakeFlags(&t);
    const Status status = ParseArgs(flags, args);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("--path needs a value"),
              std::string::npos)
        << status.message();
  }
  {
    Targets t;
    FlagSet flags = MakeFlags(&t);
    const Status status = ParseArgs(flags, {"--port=1", "--port=2"});
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("--port=2"), std::string::npos)
        << status.message();
  }
  {
    Targets t;
    FlagSet flags = MakeFlags(&t);
    EXPECT_FALSE(ParseArgs(flags, {"--mmap", "--mmap"}).ok());
  }
}

TEST(FlagSetTest, PositionalsAndRequiredFlags) {
  std::string graph;
  std::string index;
  FlagSet flags("prog build", "");
  flags.Positional("GRAPH", &graph)
      .Add("--index", "PATH", &index, "output")
      .Required();
  EXPECT_TRUE(ParseArgs(flags, {"--index", "i.widx", "g.txt"}).ok());
  EXPECT_EQ(graph, "g.txt");
  EXPECT_EQ(index, "i.widx");

  FlagSet missing_flag("prog build", "");
  missing_flag.Positional("GRAPH", &graph)
      .Add("--index", "PATH", &index, "output")
      .Required();
  const Status no_index = ParseArgs(missing_flag, {"g.txt"});
  ASSERT_FALSE(no_index.ok());
  EXPECT_NE(no_index.message().find("missing --index=PATH"),
            std::string::npos);

  FlagSet missing_positional("prog build", "");
  missing_positional.Positional("GRAPH", &graph);
  EXPECT_FALSE(ParseArgs(missing_positional, {}).ok());
  FlagSet extra_positional("prog build", "");
  extra_positional.Positional("GRAPH", &graph);
  EXPECT_FALSE(ParseArgs(extra_positional, {"a", "b"}).ok());
}

TEST(FlagSetTest, RepeatableCustomFlagSeesEveryValue) {
  std::vector<uint16_t> ports;
  FlagSet flags("prog", "");
  flags
      .Custom("--shard", "ID=PORT", "a shard",
              [&ports](std::string_view value) {
                const size_t eq = value.find('=');
                if (eq == std::string_view::npos) {
                  return Status::InvalidArgument("expected ID=PORT");
                }
                uint16_t port = 0;
                Status status = ParseFlagValue(value.substr(eq + 1), &port);
                if (status.ok()) ports.push_back(port);
                return status;
              })
      .Repeatable();
  ASSERT_TRUE(
      ParseArgs(flags, {"--shard", "0=9001", "--shard=1=9002"}).ok());
  EXPECT_EQ(ports, (std::vector<uint16_t>{9001, 9002}));

  const Status bad = ParseArgs(flags, {"--shard", "2=70000"});
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.message().find("--shard=2=70000"), std::string::npos)
      << bad.message();
  const Status malformed = ParseArgs(flags, {"--shard=9001"});
  ASSERT_FALSE(malformed.ok());
  EXPECT_NE(malformed.message().find("expected ID=PORT"), std::string::npos);
}

TEST(FlagSetTest, HelpStopsParsing) {
  Targets t;
  FlagSet flags = MakeFlags(&t);
  ASSERT_TRUE(ParseArgs(flags, {"--help", "--bogus"}).ok());
  EXPECT_TRUE(flags.help_requested());
}

TEST(FlagSetTest, UsageListsEachFlagOnceWithItsDefault) {
  Targets t;
  FlagSet flags = MakeFlags(&t);
  const std::string usage = flags.Usage();
  EXPECT_EQ(usage.rfind("usage: prog sub [flags]\n", 0), 0u) << usage;
  EXPECT_NE(usage.find("A test command."), std::string::npos);
  for (const char* name : {"--port=", "--threads=", "--bytes=", "--fraction=",
                           "--path=", "--mmap ", "--no-sync ", "--query=",
                           "--help "}) {
    EXPECT_EQ(Count(usage, std::string("  ") + name), 1u) << name << usage;
  }
  EXPECT_NE(usage.find("TCP port (default 8080)"), std::string::npos);
  EXPECT_NE(usage.find("worker threads (default 4)"), std::string::npos);
  EXPECT_NE(usage.find("a share (default 0.5)"), std::string::npos);
  // Empty strings, switches and optional targets show no default.
  EXPECT_NE(usage.find("a file\n"), std::string::npos);
  EXPECT_NE(usage.find("map the file\n"), std::string::npos);
  EXPECT_NE(usage.find("a vertex\n"), std::string::npos);

  // The defaults are the bound fields' values at declaration.
  ASSERT_TRUE(ParseArgs(flags, {"--port=1"}).ok());
  EXPECT_EQ(flags.Usage(), usage);
}

}  // namespace
}  // namespace simrank
