package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.report.Reports
import repro.core.{Erosion, VStoreConfigurator}

/** Figure 12 — age-based data erosion under storage budgets.
  *
  * Paper: 10-day lifespan; 4 SFs take 5 TB intact. Budget >= 5 TB => no
  * decay (k=0); 4 TB => k=1; tighter budgets => more aggressive k. Under
  * 2 TB, SF1/SF2 erode first and everything but the golden format is gone
  * past day 5.
  */
class Fig12ErosionBench extends AnyFunSuite {

  private lazy val cfg = VStoreConfigurator.derive()
  private lazy val results = Reports.fig12(cfg)

  test("a budget above the intact footprint needs no decay (k=0)") {
    assert(results.head.k === 0.0)
    assert(results.head.speeds.forall(_ === 1.0))
  }

  test("tighter budgets pick higher decay factors k (Fig 12a)") {
    val ks = results.map(_.k)
    ks.zip(ks.tail).foreach { case (a, b) => assert(b >= a, ks.toString) }
  }

  test("every reachable budget is met by the plan") {
    results.foreach { r =>
      val (b, total) = (r.budgetBytes, r.perAgeBytes.sum)
      if (r.k < Erosion.KMax) assert(total <= b + 1e-6, f"budget ${b / 1e12}%.2f total ${total / 1e12}%.2f")
    }
  }

  test("speed decays monotonically with age (Fig 12a)") {
    results.foreach { r =>
      r.speeds.zip(r.speeds.tail).foreach { case (young, old) =>
        assert(old <= young + 1e-9, r.speeds.toString)
      }
    }
  }

  test("stored bytes decrease with age (Fig 12b)") {
    results.foreach { r =>
      r.perAgeBytes.zip(r.perAgeBytes.tail).foreach { case (young, old) =>
        assert(old <= young + 1e-6)
      }
    }
  }

  test("the golden format survives every age at every budget (Fig 12b)") {
    results.foreach { r =>
      r.retention.foreach(m => assert(m("SFg") === 1.0))
    }
  }

  test("day 1 is always intact (P(1) = 1)") {
    results.foreach { r =>
      assert(r.retention.head.values.forall(_ === 1.0))
      assert(r.speeds.head === 1.0)
    }
  }

  test("low-impact formats erode before the heavy raw format") {
    // under the 0.8 budget, the encoded sparse format (smallest speed
    // impact per byte) goes first, and the largest RAW format only later
    val r = results(1)
    val heavyRaw = Reports.table2(cfg)._2.filter(_.sf.coding.isRaw).maxBy(_.kbPerSec).label
    val firstErodedAge = r.retention.indexWhere(_.values.exists(_ < 1.0))
    assert(firstErodedAge >= 0, "nothing erodes under the 0.8 budget")
    val eroded = r.retention(firstErodedAge).filter(_._2 < 1.0).keys.toSet
    info(s"first eroded at age ${firstErodedAge + 1}: $eroded")
    assert(!eroded.contains("SFg"))
    assert(!eroded.contains(heavyRaw), s"$heavyRaw, the largest RAW format, erodes first")
  }

  test("pmin is the floor: everything but golden deleted still serves queries") {
    val (tree, consumers) = VStoreConfigurator.erosionInputs(cfg)
    val pm = Erosion.pMin(tree, consumers)
    info(f"Pmin = $pm%.4f")
    assert(pm > 0 && pm < 1)
  }
}
