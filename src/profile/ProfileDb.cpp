//===- profile/ProfileDb.cpp ----------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "profile/ProfileDb.h"

#include "support/Hash.h"

#include <sstream>

using namespace scmo;

ProfileDb ProfileDb::fromRun(const Program &P, const ProbeTable &Probes,
                             const std::vector<uint64_t> &Counters) {
  ProfileDb Db;
  // First pass: per-routine block counts come from the probe table itself
  // (every block carries an entry probe), so no body needs to be resident.
  std::map<RoutineId, size_t> NumBlocks;
  for (uint32_t Id = 0; Id != Probes.size(); ++Id) {
    const ProbeInfo &PI = Probes.info(Id);
    size_t &N = NumBlocks[PI.Routine];
    if (PI.Block + 1 > N)
      N = PI.Block + 1;
  }
  for (uint32_t Id = 0; Id != Probes.size(); ++Id) {
    const ProbeInfo &PI = Probes.info(Id);
    std::string Key = P.displayName(PI.Routine);
    RoutineProfile &RP = Db.Map[Key];
    if (RP.BlockCounts.empty()) {
      size_t N = NumBlocks[PI.Routine];
      RP.BlockCounts.assign(N, 0);
      RP.TakenCounts.assign(N, 0);
      RP.Checksum = P.routine(PI.Routine).Checksum;
    }
    uint64_t Count = Id < Counters.size() ? Counters[Id] : 0;
    if (PI.Block >= RP.BlockCounts.size())
      continue;
    if (PI.Kind == ProbeKind::BlockEntry)
      RP.BlockCounts[PI.Block] += Count;
    else
      RP.TakenCounts[PI.Block] += Count;
  }
  return Db;
}

void ProfileDb::merge(const ProfileDb &Other) {
  for (const auto &[Key, Theirs] : Other.Map) {
    auto It = Map.find(Key);
    if (It == Map.end()) {
      Map.emplace(Key, Theirs);
      continue;
    }
    RoutineProfile &Ours = It->second;
    if (Ours.Checksum != Theirs.Checksum ||
        Ours.BlockCounts.size() != Theirs.BlockCounts.size()) {
      // The code changed between runs; the newer run wins.
      Ours = Theirs;
      continue;
    }
    for (size_t B = 0; B != Ours.BlockCounts.size(); ++B) {
      Ours.BlockCounts[B] += Theirs.BlockCounts[B];
      Ours.TakenCounts[B] += Theirs.TakenCounts[B];
    }
  }
}

bool ProfileDb::correlate(const Program &P, RoutineId R, RoutineBody &Body,
                          CorrelationStats &Stats) const {
  auto It = Map.find(P.displayName(R));
  if (It == Map.end()) {
    ++Stats.Missing;
    return false;
  }
  const RoutineProfile &RP = It->second;
  if (RP.Checksum != P.routine(R).Checksum ||
      RP.BlockCounts.size() != Body.Blocks.size()) {
    // Stale profile: the source diverged since training (paper Section 6.2).
    ++Stats.Stale;
    return false;
  }
  for (BlockId B = 0; B != Body.Blocks.size(); ++B) {
    Body.Blocks[B].Freq = RP.BlockCounts[B];
    Body.Blocks[B].TakenFreq = RP.TakenCounts[B];
  }
  Body.HasProfile = true;
  ++Stats.Matched;
  return true;
}

const RoutineProfile *ProfileDb::lookup(const std::string &Name) const {
  auto It = Map.find(Name);
  return It == Map.end() ? nullptr : &It->second;
}

void ProfileDb::insert(const std::string &Name, RoutineProfile Profile) {
  Map[Name] = std::move(Profile);
}

uint64_t ProfileDb::totalCount() const {
  uint64_t Total = 0;
  for (const auto &[Key, RP] : Map)
    for (uint64_t C : RP.BlockCounts)
      Total += C;
  return Total;
}

std::string ProfileDb::serialize() const {
  std::ostringstream OS;
  OS << "scmo-profile-v1 " << Map.size() << "\n";
  for (const auto &[Key, RP] : Map) {
    OS << Key << " " << RP.Checksum << " " << RP.BlockCounts.size() << "\n";
    for (size_t B = 0; B != RP.BlockCounts.size(); ++B)
      OS << RP.BlockCounts[B] << " " << RP.TakenCounts[B] << "\n";
  }
  return OS.str();
}

bool ProfileDb::parse(const std::string &Text, ProfileDb &Out) {
  std::istringstream IS(Text);
  std::string Magic;
  size_t NumEntries = 0;
  if (!(IS >> Magic >> NumEntries) || Magic != "scmo-profile-v1")
    return false;
  ProfileDb Db;
  for (size_t E = 0; E != NumEntries; ++E) {
    std::string Key;
    RoutineProfile RP;
    size_t NumBlocks = 0;
    if (!(IS >> Key >> RP.Checksum >> NumBlocks))
      return false;
    // Each block line takes at least 4 characters (" 0 0"), so a count the
    // rest of the text cannot hold is malformed, never an allocation.
    size_t Left = IS.eof() ? 0 : Text.size() - size_t(IS.tellg());
    if (NumBlocks > Left / 4)
      return false;
    RP.BlockCounts.resize(NumBlocks);
    RP.TakenCounts.resize(NumBlocks);
    for (size_t B = 0; B != NumBlocks; ++B)
      if (!(IS >> RP.BlockCounts[B] >> RP.TakenCounts[B]))
        return false;
    Db.Map.emplace(std::move(Key), std::move(RP));
  }
  Out = std::move(Db);
  return true;
}

uint64_t ProfileDb::fingerprint() const {
  std::vector<uint8_t> Bytes;
  auto U64 = [&Bytes](uint64_t V) {
    for (int I = 0; I != 8; ++I)
      Bytes.push_back(static_cast<uint8_t>(V >> (I * 8)));
  };
  for (const auto &[Key, RP] : Map) {
    U64(Key.size());
    Bytes.insert(Bytes.end(), Key.begin(), Key.end());
    U64(RP.Checksum);
    U64(RP.BlockCounts.size());
    for (size_t B = 0; B != RP.BlockCounts.size(); ++B) {
      U64(RP.BlockCounts[B]);
      U64(RP.TakenCounts[B]);
    }
  }
  return hashBytes(Bytes.data(), Bytes.size());
}
