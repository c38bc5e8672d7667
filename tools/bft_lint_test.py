#!/usr/bin/env python3
"""Self-tests for tools/bft_lint.py: each rule gets a hit fixture (must be flagged), a clean
fixture (must pass), and a waiver fixture (flagged code + allow() comment must pass). Run
directly or via ctest (bft_lint_selftest)."""

import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bft_lint  # noqa: E402


class LintFixture(unittest.TestCase):
    def setUp(self):
        self.root = tempfile.mkdtemp(prefix="bft_lint_test_")
        for d in ("src/common", "src/core", "src/runtime", "src/sim", "tests"):
            os.makedirs(os.path.join(self.root, d), exist_ok=True)
        # The wrapper header must exist so its own raw tokens are exempt.
        self.write(
            "src/common/thread_annotations.h",
            "#include <mutex>\nnamespace bft { class Mutex {}; }\n",
        )

    def tearDown(self):
        shutil.rmtree(self.root, ignore_errors=True)

    def write(self, rel, content):
        path = os.path.join(self.root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write(content)
        return path

    def lint_file(self, rel):
        findings = []
        bft_lint.check_file(os.path.join(self.root, rel), rel, findings)
        return findings

    def rules_of(self, findings):
        return [f.rule for f in findings]

    # --- raw-mutex ---------------------------------------------------------------------------

    def test_raw_mutex_hit(self):
        rel = self.write("src/runtime/bad.cc", "#include <mutex>\nstd::mutex mu;\n")
        findings = self.lint_file("src/runtime/bad.cc")
        self.assertIn("raw-mutex", self.rules_of(findings))

    def test_raw_mutex_variants_hit(self):
        body = (
            "void f() {\n"
            "  std::shared_mutex sm;\n"
            "  std::condition_variable cv;\n"
            "  std::lock_guard<std::mutex> g(sm);\n"
            "}\n"
        )
        self.write("src/runtime/bad2.cc", body)
        findings = self.lint_file("src/runtime/bad2.cc")
        self.assertGreaterEqual(self.rules_of(findings).count("raw-mutex"), 3)

    def test_raw_mutex_clean_wrapper_header_exempt(self):
        findings = self.lint_file("src/common/thread_annotations.h")
        self.assertEqual(findings, [])

    def test_raw_mutex_clean_wrapped_types(self):
        self.write("src/runtime/good.cc", "bft::Mutex mu;\nvoid f() { MutexLock lock(mu); }\n")
        self.assertEqual(self.lint_file("src/runtime/good.cc"), [])

    def test_raw_mutex_in_comment_or_string_ignored(self):
        body = '// std::mutex in prose\nconst char* s = "std::mutex";\n'
        self.write("src/runtime/good2.cc", body)
        self.assertEqual(self.lint_file("src/runtime/good2.cc"), [])

    def test_raw_mutex_waiver(self):
        body = "std::mutex mu;  // bft-lint: allow(raw-mutex) interop with external API\n"
        self.write("src/runtime/waived.cc", body)
        self.assertEqual(self.lint_file("src/runtime/waived.cc"), [])

    def test_waiver_without_reason_is_error(self):
        body = "std::mutex mu;  // bft-lint: allow(raw-mutex)\n"
        self.write("src/runtime/waived2.cc", body)
        self.assertIn("waiver", self.rules_of(self.lint_file("src/runtime/waived2.cc")))

    # --- blocking-under-lock -----------------------------------------------------------------

    def test_blocking_under_lock_hit(self):
        body = (
            "void Sleep() {\n"
            "  ReaderMutexLock lock(mu_);\n"
            "  ppoll(fds, nfds, timeout, nullptr);\n"
            "}\n"
        )
        self.write("src/runtime/sleep_bad.cc", body)
        findings = self.lint_file("src/runtime/sleep_bad.cc")
        self.assertIn("blocking-under-lock", self.rules_of(findings))

    def test_blocking_after_unlock_clean(self):
        body = (
            "void Sleep() {\n"
            "  ReaderMutexLock lock(mu_);\n"
            "  lock.Unlock();\n"
            "  ppoll(fds, nfds, timeout, nullptr);\n"
            "}\n"
        )
        self.write("src/runtime/sleep_good.cc", body)
        self.assertEqual(self.lint_file("src/runtime/sleep_good.cc"), [])

    def test_blocking_after_scope_exit_clean(self):
        body = (
            "void f() {\n"
            "  {\n"
            "    MutexLock lock(mu_);\n"
            "    x = 1;\n"
            "  }\n"
            "  ppoll(fds, nfds, nullptr, nullptr);\n"
            "}\n"
        )
        self.write("src/runtime/scope_good.cc", body)
        self.assertEqual(self.lint_file("src/runtime/scope_good.cc"), [])

    def test_branch_toggle_does_not_leak(self):
        # A re-lock inside a branch that exits (continue) must not mark the fallthrough
        # path as locked — the rt_node Loop shape.
        body = (
            "void Loop() {\n"
            "  MutexLock lock(mu_);\n"
            "  while (true) {\n"
            "    lock.Unlock();\n"
            "    if (ran_task) {\n"
            "      lock.Lock();\n"
            "      continue;\n"
            "    }\n"
            "    ppoll(fds, nfds, nullptr, nullptr);\n"
            "    lock.Lock();\n"
            "  }\n"
            "}\n"
        )
        self.write("src/runtime/loop_good.cc", body)
        self.assertEqual(self.lint_file("src/runtime/loop_good.cc"), [])

    def test_relock_then_blocking_hit(self):
        body = (
            "void f() {\n"
            "  MutexLock lock(mu_);\n"
            "  lock.Unlock();\n"
            "  work();\n"
            "  lock.Lock();\n"
            "  recvmmsg(fd, msgs, n, 0, nullptr);\n"
            "}\n"
        )
        self.write("src/runtime/relock_bad.cc", body)
        self.assertIn("blocking-under-lock", self.rules_of(self.lint_file("src/runtime/relock_bad.cc")))

    def test_nonblocking_recvmmsg_clean(self):
        body = (
            "void Drain() {\n"
            "  ReaderMutexLock lock(mu_);\n"
            "  recvmmsg(fd, msgs, n, MSG_DONTWAIT, nullptr);\n"
            "}\n"
        )
        self.write("src/runtime/drain_good.cc", body)
        self.assertEqual(self.lint_file("src/runtime/drain_good.cc"), [])

    def test_condvar_wait_on_held_mutex_clean(self):
        body = (
            "void f() {\n"
            "  MutexLock lock(delay_mu_);\n"
            "  delay_cv_.WaitUntil(delay_mu_, due);\n"
            "}\n"
        )
        self.write("src/runtime/cv_good.cc", body)
        self.assertEqual(self.lint_file("src/runtime/cv_good.cc"), [])

    def test_condvar_wait_on_other_mutex_hit(self):
        body = (
            "void f() {\n"
            "  MutexLock lock(mu_);\n"
            "  other_cv_.Wait(other_mu_);\n"
            "}\n"
        )
        self.write("src/runtime/cv_bad.cc", body)
        self.assertIn("blocking-under-lock", self.rules_of(self.lint_file("src/runtime/cv_bad.cc")))

    def test_join_under_lock_hit(self):
        body = (
            "void f() {\n"
            "  MutexLock lock(delay_mu_);\n"
            "  delay_thread_.join();\n"
            "}\n"
        )
        self.write("src/runtime/join_bad.cc", body)
        self.assertIn("blocking-under-lock", self.rules_of(self.lint_file("src/runtime/join_bad.cc")))

    def test_blocking_waiver(self):
        body = (
            "void Drain() {\n"
            "  ReaderMutexLock lock(mu_);\n"
            "  // bft-lint: allow(blocking-under-lock) wait bounded by kernel timeout\n"
            "  ppoll(fds, nfds, &ts, nullptr);\n"
            "}\n"
        )
        self.write("src/runtime/waived3.cc", body)
        self.assertEqual(self.lint_file("src/runtime/waived3.cc"), [])

    # --- layering ----------------------------------------------------------------------------

    def test_layering_hit(self):
        self.write("src/core/bad_core.h", '#include "src/runtime/rt_node.h"\n')
        self.assertIn("layering", self.rules_of(self.lint_file("src/core/bad_core.h")))

    def test_layering_sim_hit(self):
        self.write("src/core/bad_core2.h", '#include "src/sim/sim_network.h"\n')
        self.assertIn("layering", self.rules_of(self.lint_file("src/core/bad_core2.h")))

    def test_layering_clean(self):
        self.write("src/core/good_core.h", '#include "src/common/bytes.h"\n')
        self.assertEqual(self.lint_file("src/core/good_core.h"), [])

    def test_layering_outside_core_clean(self):
        # src/shard -> src/sim is legitimate; only src/core is fenced.
        self.write("src/runtime/uses_sim.h", '#include "src/sim/sim_network.h"\n')
        self.assertEqual(self.lint_file("src/runtime/uses_sim.h"), [])

    # --- msgtype-order -----------------------------------------------------------------------

    def test_msgtype_order_hit(self):
        self.write(
            "src/core/messages.h",
            "enum class MsgType : uint8_t {\n  kRequest = 1,\n  kPrepare = 2,\n  kCommit = 3,\n};\n"
            "using Message = std::variant<RequestMsg, CommitMsg, PrepareMsg>;\n",
        )
        findings = []
        bft_lint.check_msgtype_order(self.root, findings)
        self.assertEqual([f.rule for f in findings], ["msgtype-order", "msgtype-order"])
        self.assertIn("kPrepare", findings[0].message)

    def test_msgtype_order_missing_alternative_hit(self):
        self.write(
            "src/core/messages.h",
            "enum class MsgType : uint8_t {\n  kRequest = 1,\n  kPrepare = 2,\n};\n"
            "using Message = std::variant<RequestMsg>;\n",
        )
        findings = []
        bft_lint.check_msgtype_order(self.root, findings)
        self.assertEqual([f.rule for f in findings], ["msgtype-order"])
        self.assertIn("kPrepare", findings[0].message)

    def test_msgtype_order_clean(self):
        self.write(
            "src/core/messages.h",
            "enum class MsgType : uint8_t {\n  kRequest = 1,\n  kPrePrepare = 2,\n};\n"
            "using Message =\n    std::variant<RequestMsg,\n                 PrePrepareMsg>;\n",
        )
        findings = []
        bft_lint.check_msgtype_order(self.root, findings)
        self.assertEqual(findings, [])

    # --- whole-repo run ----------------------------------------------------------------------

    def test_real_repo_is_clean(self):
        repo = os.path.dirname(os.path.dirname(os.path.abspath(bft_lint.__file__)))
        rc = bft_lint.main(["--root", repo])
        self.assertEqual(rc, 0, "bft_lint must be clean on the repository itself")


if __name__ == "__main__":
    unittest.main()
