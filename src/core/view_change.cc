#include "src/core/view_change.h"

#include <algorithm>

namespace bft {

void ComputePq(const std::vector<SeqObservation>& log, PqState* pq) {
  for (const SeqObservation& obs : log) {
    if (obs.prepared) {
      // Fig 3-2: prepared/committed in the view being left supersedes older PSet info.
      pq->pset[obs.seq] = ViewChangeMsg::PEntry{obs.seq, obs.d, obs.view};
    }
    if (obs.pre_prepared || obs.prepared) {
      auto& dv = pq->qset[obs.seq];
      auto it = std::find_if(dv.begin(), dv.end(),
                             [&obs](const auto& e) { return e.first == obs.d; });
      if (it != dv.end()) {
        it->second = std::max(it->second, obs.view);
      } else {
        dv.emplace_back(obs.d, obs.view);
        if (dv.size() > kMaxQsetViews) {
          // Bounded space (Section 3.2.5): drop the pair with the lowest view.
          auto lowest = std::min_element(
              dv.begin(), dv.end(),
              [](const auto& a, const auto& b) { return a.second < b.second; });
          dv.erase(lowest);
        }
      }
    }
  }
}

ViewChangeDecision RunDecisionProcedure(
    const ReplicaConfig& config, const std::map<NodeId, ViewChangeMsg>& s,
    const std::function<bool(const Digest&)>& have_payload) {
  ViewChangeDecision out;
  const int quorum = config.quorum();
  const int weak = config.weak();

  // --- Checkpoint selection -------------------------------------------------------------------
  // Pick the pair (n, d) with the highest n such that 2f+1 messages have h <= n (ordering info
  // for later requests is still available) and f+1 messages report checkpoint (n, d) (weak
  // certificate: the checkpoint is correct).
  bool found = false;
  SeqNo best_n = 0;
  Digest best_d;
  for (const auto& [sender, m] : s) {
    for (const auto& [n, d] : m.checkpoints) {
      if (found && n <= best_n) {
        continue;
      }
      int h_ok = 0;
      int c_ok = 0;
      for (const auto& [sender2, m2] : s) {
        if (m2.h <= n) {
          ++h_ok;
        }
        for (const auto& [n2, d2] : m2.checkpoints) {
          if (n2 == n && d2 == d) {
            ++c_ok;
            break;
          }
        }
      }
      if (h_ok >= quorum && c_ok >= weak) {
        found = true;
        best_n = n;
        best_d = d;
      }
    }
  }
  if (!found) {
    return out;
  }
  out.checkpoint_selected = true;
  out.min_s = best_n;
  out.chkpt_digest = best_d;

  // --- Per-sequence-number selection ------------------------------------------------------------
  // Decide each n in (min_s, max_n], where max_n is the highest sequence number any message
  // claims prepared; numbers beyond that need no pre-prepare in the new view.
  SeqNo max_n = out.min_s;
  for (const auto& [sender, m] : s) {
    for (const auto& e : m.p) {
      max_n = std::max(max_n, e.seq);
    }
  }
  max_n = std::min<SeqNo>(max_n, out.min_s + config.log_size());

  bool all_decided = true;
  for (SeqNo n = out.min_s + 1; n <= max_n; ++n) {
    bool decided = false;

    // Condition A: some message claims (n, d, v) prepared, verified by A1 + A2 (+ A3).
    for (const auto& [sender, m] : s) {
      if (decided) {
        break;
      }
      for (const auto& e : m.p) {
        if (e.seq != n) {
          continue;
        }
        // A1: 2f+1 messages m' with m'.h < n whose P entries for n do not contradict (d, v):
        // every (n, d', v') in m'.P has v' < v, or v' == v and d' == d.
        int a1 = 0;
        for (const auto& [sender2, m2] : s) {
          if (m2.h >= n) {
            continue;
          }
          bool ok = true;
          for (const auto& e2 : m2.p) {
            if (e2.seq != n) {
              continue;
            }
            if (!(e2.view < e.view || (e2.view == e.view && e2.d == e.d))) {
              ok = false;
              break;
            }
          }
          if (ok) {
            ++a1;
          }
        }
        if (a1 < quorum) {
          continue;
        }
        // A2: f+1 messages whose Q contains (n, ..., (d, v') with v' >= v): at least one
        // correct replica pre-prepared this request at or after view v.
        int a2 = 0;
        for (const auto& [sender2, m2] : s) {
          for (const auto& q : m2.q) {
            if (q.seq != n) {
              continue;
            }
            for (const auto& [d2, v2] : q.dv) {
              if (d2 == e.d && v2 >= e.view) {
                ++a2;
                break;
              }
            }
            break;
          }
          if (a2 >= weak) {
            break;
          }
        }
        if (a2 < weak) {
          continue;
        }
        // A3: the caller holds the batch payload.
        if (!have_payload(e.d)) {
          out.missing_payloads.push_back(e.d);
          decided = true;  // decided in principle; blocked only on the payload
          all_decided = false;
          break;
        }
        out.chosen.emplace_back(n, e.d);
        decided = true;
        break;
      }
    }
    if (decided) {
      continue;
    }

    // Condition B: 2f+1 messages with h < n and no P entry for n — no request with this
    // sequence number could have committed; choose the null request.
    int b = 0;
    for (const auto& [sender2, m2] : s) {
      if (m2.h >= n) {
        continue;
      }
      bool has_entry = false;
      for (const auto& e2 : m2.p) {
        if (e2.seq == n) {
          has_entry = true;
          break;
        }
      }
      if (!has_entry) {
        ++b;
      }
    }
    if (b >= quorum) {
      out.chosen.emplace_back(n, NullBatchDigest());
      continue;
    }

    all_decided = false;
  }

  out.complete = all_decided;
  return out;
}

}  // namespace bft
