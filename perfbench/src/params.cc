#include "params.h"

#include <cstdio>
#include <random>
#include <set>
#include <utility>

#include "tpch/queries.h"

namespace perfbench {
namespace {

using tqp::Result;
using tqp::Status;

// Vocabularies of the generator (src/tpch/dbgen.cc, TPC-H spec 4.2.3).
const std::vector<std::string> kNations = {
    "ALGERIA", "ARGENTINA", "BRAZIL",  "CANADA",       "EGYPT",
    "ETHIOPIA", "FRANCE",   "GERMANY", "INDIA",        "INDONESIA",
    "IRAN",    "IRAQ",      "JAPAN",   "JORDAN",       "KENYA",
    "MOROCCO", "MOZAMBIQUE", "PERU",   "CHINA",        "ROMANIA",
    "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"};
const std::vector<std::string> kSegments = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                                            "MACHINERY", "HOUSEHOLD"};
const std::vector<std::string> kColors = {
    "almond", "antique", "aquamarine", "azure", "beige", "bisque", "black",
    "blanched", "blue", "blush", "brown", "burlywood", "burnished", "chartreuse",
    "chiffon", "chocolate", "coral", "cornflower", "cornsilk", "cream", "cyan",
    "dark", "deep", "dim", "dodger", "drab", "firebrick", "floral", "forest",
    "frosted", "gainsboro", "ghost", "goldenrod", "green", "grey", "honeydew",
    "hot", "hotpink", "indian", "ivory", "khaki", "lace", "lavender", "lawn",
    "lemon", "light", "lime", "linen", "magenta", "maroon", "medium", "metallic",
    "midnight", "mint", "misty", "moccasin", "navajo", "navy", "olive", "orange",
    "orchid", "pale", "papaya", "peach", "peru", "pink", "plum", "powder",
    "puff", "purple", "red", "rose", "rosy", "royal", "saddle", "salmon",
    "sandy", "seashell", "sienna", "sky", "slate", "smoke", "snow", "spring",
    "steel", "tan", "thistle", "tomato", "turquoise", "violet", "wheat", "white",
    "yellow"};

int Int(std::mt19937_64* rng, int lo, int hi) {
  return std::uniform_int_distribution<int>(lo, hi)(*rng);
}

const std::string& Pick(std::mt19937_64* rng, const std::vector<std::string>& v) {
  return v[static_cast<size_t>(Int(rng, 0, static_cast<int>(v.size()) - 1))];
}

std::string Quote(const std::string& s) { return "'" + s + "'"; }

std::string Date(int year, int month, int day) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "'%04d-%02d-%02d'", year, month, day);
  return buf;
}

// Replaces every occurrence of each `from` in one left-to-right pass over the
// original text (so a substituted value is never substituted again). Every
// `from` must occur at least once.
Result<std::string> ReplaceAll(
    int query, const std::string& sql,
    const std::vector<std::pair<std::string, std::string>>& subs) {
  std::vector<int> hits(subs.size(), 0);
  std::string out;
  size_t i = 0;
  while (i < sql.size()) {
    bool matched = false;
    for (size_t k = 0; k < subs.size(); ++k) {
      if (sql.compare(i, subs[k].first.size(), subs[k].first) == 0) {
        out += subs[k].second;
        i += subs[k].first.size();
        ++hits[k];
        matched = true;
        break;
      }
    }
    if (!matched) out += sql[i++];
  }
  for (size_t k = 0; k < subs.size(); ++k) {
    if (hits[k] == 0) {
      return Status::Invalid("Q" + std::to_string(query) + " text lacks literal " +
                             subs[k].first);
    }
  }
  return out;
}

Result<std::string> SubstituteParams(int query, std::mt19937_64* rng) {
  TQP_ASSIGN_OR_RETURN(std::string sql, tqp::tpch::QueryText(query));
  std::vector<std::pair<std::string, std::string>> s;
  switch (query) {
    case 3:
      s = {{"'BUILDING'", Quote(Pick(rng, kSegments))},
           {"'1995-03-15'", Date(1995, 3, Int(rng, 1, 31))}};
      break;
    case 9:
      s = {{"'%green%'", Quote("%" + Pick(rng, kColors) + "%")}};
      break;
    case 18:
      // The engine's text lowers the spec's 312-315 to 212 so the query keeps
      // result rows at small scale factors; draw at most that value.
      s = {{"> 212", "> " + std::to_string(Int(rng, 200, 212))}};
      break;
    case 21:
      s = {{"'SAUDI ARABIA'", Quote(Pick(rng, kNations))}};
      break;
    default:
      return Status::Invalid("no substitution parameters for Q" +
                             std::to_string(query));
  }
  return ReplaceAll(query, sql, s);
}

}  // namespace

Result<std::vector<Statement>> ParameterVariants(const std::vector<int>& queries,
                                                 int per_query) {
  std::vector<Statement> pool;
  for (int q : queries) {
    // Variant v is drawn from a generator seeded by (q, v); a draw that
    // repeats an earlier variant is redrawn with the next attempt number.
    std::set<std::string> seen;
    for (int v = 0; v < per_query; ++v) {
      std::string sql;
      for (uint64_t attempt = 0; attempt < 16 && (sql.empty() || seen.count(sql));
           ++attempt) {
        std::mt19937_64 rng((static_cast<uint64_t>(q) * 1000003u +
                             static_cast<uint64_t>(v)) * 64 + attempt);
        TQP_ASSIGN_OR_RETURN(sql, SubstituteParams(q, &rng));
      }
      if (!seen.insert(sql).second) {
        return Status::Invalid("Q" + std::to_string(q) +
                               ": could not draw distinct parameters");
      }
      pool.push_back({q, std::move(sql)});
    }
  }
  return pool;
}

}  // namespace perfbench
