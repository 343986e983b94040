#include "common/config.hpp"

#include <gtest/gtest.h>

namespace amri {
namespace {

TEST(Config, FromArgs) {
  const char* argv[] = {"prog", "alpha=1", "beta=2.5", "name=test", "flag"};
  const Config cfg = Config::from_args(5, argv);
  EXPECT_EQ(cfg.get_int("alpha"), 1);
  EXPECT_EQ(cfg.get_double("beta"), 2.5);
  EXPECT_EQ(cfg.get_string("name"), "test");
  EXPECT_FALSE(cfg.has("flag"));  // no '=' -> ignored
}

TEST(Config, FromArgsFlagSyntax) {
  const char* argv[] = {"prog",        "--trace-out", "run.jsonl",
                        "--rate=40",   "--verbose",   "--sim-seconds",
                        "12"};
  const Config cfg = Config::from_args(7, argv);
  // "--key value" with '-' -> '_' normalisation.
  EXPECT_EQ(cfg.get_string("trace_out"), "run.jsonl");
  EXPECT_EQ(cfg.get_int("sim_seconds"), 12);
  // "--key=value" also normalises.
  EXPECT_EQ(cfg.get_int("rate"), 40);
  // A flag followed by another flag is a boolean.
  EXPECT_EQ(cfg.get_bool("verbose"), true);
}

TEST(Config, FromArgsTrailingFlagIsTrue) {
  const char* argv[] = {"prog", "--dump"};
  const Config cfg = Config::from_args(2, argv);
  EXPECT_EQ(cfg.get_bool("dump"), true);
}

TEST(Config, FromText) {
  const Config cfg = Config::from_text(
      "# comment\n"
      "a = 10\n"
      "b=hello  # trailing comment\n"
      "\n"
      "  c  =  true \n");
  EXPECT_EQ(cfg.get_int("a"), 10);
  EXPECT_EQ(cfg.get_string("b"), "hello");
  EXPECT_EQ(cfg.get_bool("c"), true);
}

TEST(Config, MissingKeysReturnNullopt) {
  const Config cfg;
  EXPECT_FALSE(cfg.get_int("nope").has_value());
  EXPECT_FALSE(cfg.get_string("nope").has_value());
  EXPECT_FALSE(cfg.get_double("nope").has_value());
  EXPECT_FALSE(cfg.get_bool("nope").has_value());
}

TEST(Config, FallbackAccessors) {
  Config cfg;
  cfg.set("x", "5");
  EXPECT_EQ(cfg.int_or("x", 1), 5);
  EXPECT_EQ(cfg.int_or("y", 1), 1);
  EXPECT_EQ(cfg.double_or("y", 2.0), 2.0);
  EXPECT_EQ(cfg.string_or("y", "dflt"), "dflt");
  EXPECT_EQ(cfg.bool_or("y", true), true);
}

TEST(Config, MalformedNumbersRejected) {
  Config cfg;
  cfg.set("n", "12abc");
  EXPECT_FALSE(cfg.get_int("n").has_value());
  cfg.set("d", "3.5.5");
  EXPECT_FALSE(cfg.get_double("d").has_value());
}

TEST(Config, BoolSpellings) {
  Config cfg;
  for (const char* t : {"1", "true", "yes", "on", "TRUE", "Yes"}) {
    cfg.set("b", t);
    EXPECT_EQ(cfg.get_bool("b"), true) << t;
  }
  for (const char* f : {"0", "false", "no", "off", "FALSE"}) {
    cfg.set("b", f);
    EXPECT_EQ(cfg.get_bool("b"), false) << f;
  }
  cfg.set("b", "maybe");
  EXPECT_FALSE(cfg.get_bool("b").has_value());
}

TEST(Config, LastSetWins) {
  Config cfg;
  cfg.set("k", "1");
  cfg.set("k", "2");
  EXPECT_EQ(cfg.get_int("k"), 2);
}

TEST(Config, IntAlsoReadableAsDouble) {
  Config cfg;
  cfg.set("n", "7");
  EXPECT_EQ(cfg.get_double("n"), 7.0);
}

TEST(Config, UnreadKeysAreTheOnesNeverAskedFor) {
  const char* argv[] = {"prog", "--rate=40", "--engine", "wall",
                        "--bogus-flag=1", "seed=x3", "--profile"};
  const Config cfg = Config::from_args(7, argv);
  EXPECT_EQ(cfg.double_or("rate", 80.0), 40.0);
  EXPECT_TRUE(cfg.has("profile"));
  EXPECT_FALSE(cfg.get_string("missing").has_value());
  // A malformed value still counts as read: the key was asked for.
  EXPECT_EQ(cfg.int_or("seed", 1), 1);
  EXPECT_EQ(cfg.unread_keys(),
            (std::vector<std::string>{"bogus_flag", "engine"}));
  EXPECT_EQ(cfg.string_or("engine", ""), "wall");
  EXPECT_EQ(cfg.unread_keys(), std::vector<std::string>{"bogus_flag"});
}

}  // namespace
}  // namespace amri
