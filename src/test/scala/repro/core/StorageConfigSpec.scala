package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.video.Knobs._
import repro.video.Formats._
import repro.video.{CodecModel, VideoProfile}
import repro.video.OperatorModel
import repro.video.OperatorModel.Consumer

/** §4.3 coalescing: requirement checks R1-R4, greedy-vs-exhaustive
  * validation (§6.4), and budget adaptation (Table 3).
  */
class StorageConfigSpec extends AnyFunSuite {

  private def profiler() =
    new Profiler(new Profiler.AnalyticOpBackend(VideoProfile.jackson), VideoProfile.jackson)

  /** Consumers of query B at all accuracies — the paper's own exhaustive-
    * validation subset (we shrink further for Bell-number growth).
    */
  private def triplesFor(consumers: Seq[Consumer]) =
    VStoreConfigurator.storageInputs(VStoreConfigurator.derive(consumers).derived)

  private lazy val fullCfg = VStoreConfigurator.derive()

  /** Encode cost rank of a coding: its speed step, with RAW above all. */
  private def costRank(c: Coding): Int = c match {
    case Encoded(step, _) => step.rank
    case Raw              => SpeedStep.all.size
  }

  test("R1: every CF's storage format has richer-or-equal fidelity") {
    fullCfg.storage.subscription.foreach { case (cf, sf) =>
      assert(sf.fidelity.richerOrEqual(cf.fidelity), s"$sf !>= $cf")
    }
  }

  test("R2: retrieval speed exceeds every consumer's attainable speed") {
    fullCfg.derived.foreach { d =>
      val sf = fullCfg.sfOf(d.consumer)
      val retr = CodecModel.retrievalSpeed(sf, d.fidelity.sampling.fps)
      // demand is capped at the fastest physically attainable retrieval for
      // the CF (RAW at its own fidelity) — faster consumers are disk-bound
      val ceiling = CodecModel.retrievalSpeed(StorageFormat(d.fidelity, Raw),
        d.fidelity.sampling.fps)
      val demand = math.min(d.consumptionSpeed, ceiling)
      assert(retr >= demand - 1e-6,
        s"${d.consumer}: retr=$retr < demand=$demand on $sf")
    }
  }

  test("R3: coalescing cuts the format count well below the CF count") {
    assert(fullCfg.sfs.size < fullCfg.uniqueCfs.size / 2,
      s"${fullCfg.sfs.size} SFs for ${fullCfg.uniqueCfs.size} CFs")
  }

  test("derived set contains a golden format covering everything") {
    val g = fullCfg.sfs.find(sf => fullCfg.sfs.forall(o => sf.fidelity.richerOrEqual(o.fidelity)))
    assert(g.isDefined, "no golden root among derived SFs")
    fullCfg.uniqueCfs.foreach(cf => assert(g.get.canServe(cf)))
  }

  test("the golden format keeps the slowest/smallest coding with no budget") {
    val g = fullCfg.sfs.find(_.fidelity == Fidelity.max(
      fullCfg.uniqueCfs.map(_.fidelity).reduce(Fidelity.max),
      fullCfg.uniqueCfs.head.fidelity)).get
    assert(g.coding === Coding.slowestSmallest)
  }

  test("every CF is subscribed to exactly one SF") {
    val subs = fullCfg.storage.subscription
    assert(subs.keySet === fullCfg.uniqueCfs.toSet)
  }

  test("paper shape: ~4 SFs including one RAW and the golden (Table 2b)") {
    assert(fullCfg.sfs.size >= 3 && fullCfg.sfs.size <= 6, s"${fullCfg.sfs.size}")
    assert(fullCfg.sfs.exists(_.coding.isRaw), "expect a RAW format for fast consumers")
    assert(fullCfg.sfs.exists(_.coding == Coding.slowestSmallest))
  }

  test("fast consumers land on RAW, slow consumers on encoded formats") {
    val fast = fullCfg.derived.filter(_.consumptionSpeed > 5000)
    val slow = fullCfg.derived.filter(_.consumptionSpeed < 50)
    fast.foreach(d => assert(fullCfg.sfOf(d.consumer).coding.isRaw, d.consumer.toString))
    slow.foreach(d => assert(!fullCfg.sfOf(d.consumer).coding.isRaw, d.consumer.toString))
  }

  test("cheapestAdequateCoding returns the smallest adequate option") {
    val p = profiler()
    val f = Fidelity.full
    val demand = StorageConfig.Demand(ConsumptionFormat(
      f.copy(sampling = FrameSampling.S1_30)), maxConsumerSpeed = 10.0)
    val c = StorageConfig.cheapestAdequateCoding(p, f, Seq(demand))
    assert(c.contains(Coding.slowestSmallest))
  }

  test("cheapestAdequateCoding escalates to RAW for very fast demands") {
    val p = profiler()
    val f200 = Fidelity(ImageQuality.Best, CropFactor.C100,
      Resolution.ten.find(_.height == 200).get, FrameSampling.S1_30)
    val demand = StorageConfig.Demand(ConsumptionFormat(f200), maxConsumerSpeed = 20000.0)
    val c = StorageConfig.cheapestAdequateCoding(p, f200, Seq(demand))
    assert(c.contains(Raw), s"got $c")
  }

  test("cheapestAdequateCoding returns None when nothing is fast enough") {
    val p = profiler()
    val f = Fidelity.full // raw 720p30 retrieval ~72x
    val demand = StorageConfig.Demand(ConsumptionFormat(f), maxConsumerSpeed = 1e7)
    assert(StorageConfig.cheapestAdequateCoding(p, f, Seq(demand)).isEmpty)
  }

  test("cheapestAdequateCoding picks what checking R2 per demand picks, and admits the same formats") {
    import StorageConfig.{Demand, cheapestAdequateCoding, retrievalOk}
    val p = profiler()
    // demands at a few rates, whose speeds sit on, just above or just below
    // a retrieval speed of one of f's formats, so several demands share a
    // rate and some tie
    def genDemand(f: Fidelity, rates: Seq[FrameSampling]): Gen[Demand] = for {
      s <- Gen.oneOf(rates)
      cf <- Gen.oneOf(Fidelity.space).map(_.copy(sampling = s))
      c <- Gen.oneOf(Coding.space)
      scale <- Gen.oneOf(1.0, 1.0, 0.999, 1.001)
    } yield Demand(ConsumptionFormat(cf), CodecModel.retrievalSpeed(StorageFormat(f, c), s.fps) * scale)
    val gen = for {
      f <- Gen.oneOf(Fidelity.space)
      rates <- Gen.pick(2, FrameSampling.all)
      n <- Gen.choose(0, 10)
      ds <- Gen.listOfN(n, genDemand(f, rates.toSeq))
      admitted <- Gen.frequency(1 -> Gen.const(Coding.space), 3 -> Gen.someOf(Coding.space))
    } yield (f, ds, admitted.toSet)
    val prop = Prop.forAll(gen) { case (f, ds, admitted) =>
      // each side logs the formats it asks `admit` about
      def run(pick: (StorageFormat => Boolean) => Option[Coding]) = {
        val asked = Vector.newBuilder[StorageFormat]
        val c = pick { sf => asked += sf; admitted(sf.coding) }
        (c, asked.result())
      }
      val got = run(cheapestAdequateCoding(p, f, ds, _))
      val want = run { admit =>
        (p.codingsBySize(f) :+ Raw).find(c =>
          ds.forall(retrievalOk(StorageFormat(f, c), _)) && admit(StorageFormat(f, c)))
      }
      (got == want) :| s"$f, demands ${ds.mkString(" ")}: got $got, want $want"
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(400)
      .withInitialSeed(Seed(16L)), prop)
    assert(result.passed, result)
  }

  test("coalescePair takes the knob-wise max fidelity and unions CFs") {
    val p = profiler()
    val fa = Fidelity(ImageQuality.Good, CropFactor.C100,
      Resolution.ten.find(_.height == 540).get, FrameSampling.S1_30)
    val fb = Fidelity(ImageQuality.Best, CropFactor.C50,
      Resolution.ten.find(_.height == 200).get, FrameSampling.S1_2)
    val da = StorageConfig.Demand(ConsumptionFormat(fa), 50)
    val db = StorageConfig.Demand(ConsumptionFormat(fb), 100)
    val merged = StorageConfig.coalescePair(p,
      StorageConfig.Node(StorageFormat(fa, Coding.slowestSmallest), Set(da.cf)),
      StorageConfig.Node(StorageFormat(fb, Coding.slowestSmallest), Set(db.cf)),
      Map(da.cf -> da, db.cf -> db)).get
    assert(merged.sf.fidelity === Fidelity.max(fa, fb))
    assert(merged.cfs === Set(da.cf, db.cf))
  }

  test("coalescePair takes the smallest coding the admit filter accepts") {
    val p = profiler()
    val f = Fidelity.full.copy(sampling = FrameSampling.S1_30)
    val d = StorageConfig.Demand(ConsumptionFormat(f), 10.0)
    val node = StorageConfig.Node(StorageFormat(f, Raw), Set(d.cf))
    def merge(admit: StorageFormat => Boolean) =
      StorageConfig.coalescePair(p, node, node, Map(d.cf -> d), admit)
    val free = merge(_ => true).get.sf
    val next = merge(_ != free).get.sf
    assert(next.fidelity === f)
    assert(next != free)
    assert(p.profileSf(next).bytesPerSec >= p.profileSf(free).bytesPerSec)
    assert(merge(_ => false).isEmpty)
  }

  test("greedy equals exhaustive enumeration on a small CF set (§6.4)") {
    // 8 consumers -> <= 8 CFs; Bell(8) = 4140 partitions is tractable
    val consumers = for {
      op <- Seq(OperatorModel.Motion, OperatorModel.License)
      a <- OperatorModel.accuracyLevels
    } yield Consumer(op, a)
    val triples = triplesFor(consumers)
    val pg = profiler()
    val greedy = StorageConfig.derive(pg, triples)
    val pe = profiler()
    val exhaustive = StorageConfig.deriveExhaustive(pe, triples)
    def cost(r: StorageConfig.Result) =
      r.sfs.map(sf => CodecModel.storedBytesPerSec(sf, VideoProfile.jackson)).sum
    assert(math.abs(cost(greedy) - cost(exhaustive)) <= cost(exhaustive) * 0.02 + 1e-6,
      s"greedy=${cost(greedy)} exhaustive=${cost(exhaustive)}\n" +
        s"greedy=${greedy.sfs}\nexhaustive=${exhaustive.sfs}")
  }

  /** Every ordered pair of fidelities (f, g) with g strictly richer. */
  private lazy val richerPairs: Vector[(Fidelity, Fidelity)] =
    for (f <- Fidelity.space; g <- Fidelity.space if g.richerThan(f)) yield (f, g)

  test("RAW at a poorer fidelity retrieves at least as fast as any coding at a richer one") {
    // why deriveExhaustive may drop a block once a pair in it is infeasible
    assert(richerPairs.size === 48900)
    val slower = for {
      (f, g) <- richerPairs
      rate <- FrameSampling.all if rate.rank <= f.sampling.rank
      raw = CodecModel.retrievalSpeed(StorageFormat(f, Raw), rate.fps)
      c <- Coding.space if CodecModel.retrievalSpeed(StorageFormat(g, c), rate.fps) > raw
    } yield s"RAW $f < $c $g at $rate"
    assert(slower.size === 0, s"e.g. ${slower.take(3).mkString("; ")}")
  }

  test("stored size never falls as fidelity grows at a fixed coding") {
    val smaller = for {
      (f, g) <- richerPairs
      c <- Coding.space
      v <- VideoProfile.all
      if CodecModel.storedBytesPerSec(StorageFormat(g, c), v) < CodecModel.storedBytesPerSec(StorageFormat(f, c), v)
    } yield s"$c $v: $g < $f"
    assert(smaller.size === 0, s"e.g. ${smaller.take(3).mkString("; ")}")
  }

  test("a fixed coding can retrieve faster at a richer fidelity, through chunk skipping") {
    // 6 stored fps with keyframes every 10 frames decodes all 6 frames per
    // second for a 1 fps consumer; at 15 stored fps it skips chunks and
    // decodes (10 + 1) / 2 per sample
    val poor = Fidelity(ImageQuality.Worst, CropFactor.C50, Resolution.ten.head, FrameSampling.S1_5)
    val rich = poor.copy(sampling = FrameSampling.S1_2)
    val coding = Encoded(SpeedStep.Slowest, KeyframeInterval(10))
    assert(s"$poor -> $rich, $coding" === "worst-60p-1/5-50% -> worst-60p-1/2-50%, 10-slowest")
    assert(rich.richerThan(poor))
    val speeds = Seq(poor, rich).map(f => CodecModel.retrievalSpeed(StorageFormat(f, coding), 1.0))
    assert(speeds.map(s => f"$s%.1f") === Seq("1588.9", "1733.4"))
  }

  test("greedy profiles a small fraction of the 15K format space (§6.4)") {
    val p = profiler()
    val triples = VStoreConfigurator.storageInputs(fullCfg.derived)
    StorageConfig.derive(p, triples)
    assert(p.sfRuns < 1500, s"${p.sfRuns} profiled")
    assert(p.sfRuns.toDouble / (Fidelity.space.size * Coding.space.size) < 0.1)
  }

  test("memoization hit rate during coalescing is high (§6.4: 92%)") {
    val p = profiler()
    val triples = VStoreConfigurator.storageInputs(fullCfg.derived)
    StorageConfig.derive(p, triples)
    val hitRate = 1.0 - p.sfRuns.toDouble / p.sfExamined
    assert(hitRate > 0.5, s"hit rate $hitRate (${p.sfRuns}/${p.sfExamined})")
  }

  test("ingest budget is respected when reachable (Table 3)") {
    Seq(8.0, 4.0, 2.0, 1.0).foreach { budget =>
      val cfg = VStoreConfigurator.derive(ingestBudgetCores = Some(budget))
      val cores = CodecModel.ingestCores(cfg.sfs, VideoProfile.jackson)
      assert(cores <= budget + 1e-6, s"budget=$budget used=$cores")
      // R1/R2 must still hold after adaptation
      cfg.derived.foreach { d =>
        val sf = cfg.sfOf(d.consumer)
        assert(sf.fidelity.richerOrEqual(d.fidelity))
        val ceiling = CodecModel.retrievalSpeed(StorageFormat(d.fidelity, Raw),
          d.fidelity.sampling.fps)
        assert(CodecModel.retrievalSpeed(sf, d.fidelity.sampling.fps) >=
          math.min(d.consumptionSpeed, ceiling) - 1e-6)
      }
    }
  }

  test("tighter ingest budgets raise storage cost (Table 3 tradeoff)") {
    def storage(b: Option[Double]) = {
      val cfg = VStoreConfigurator.derive(ingestBudgetCores = b)
      cfg.sfs.map(CodecModel.storedBytesPerSec(_, VideoProfile.jackson)).sum
    }
    val unbudgeted = storage(None)
    val tight = storage(Some(1.0))
    assert(tight >= unbudgeted, s"$tight < $unbudgeted")
  }

  test("budget adaptation tunes coding cheaper, never fidelity poorer") {
    val base = VStoreConfigurator.derive()
    val tight = VStoreConfigurator.derive(ingestBudgetCores = Some(1.0))
    // every consumer must still find a serving format at least as rich
    tight.derived.foreach { d =>
      assert(tight.sfOf(d.consumer).fidelity.richerOrEqual(d.fidelity))
    }
    // coding ranks move toward cheaper (higher rank) for the golden format
    def goldenStep(cfg: VStoreConfigurator.Configuration) =
      costRank(cfg.sfs.maxBy(_.fidelity.pixelRate).coding)
    assert(goldenStep(tight) >= goldenStep(base))
  }

  test("extreme budget forces coalescing below the unbudgeted format count") {
    val base = VStoreConfigurator.derive()
    val extreme = VStoreConfigurator.derive(ingestBudgetCores = Some(0.25))
    assert(extreme.sfs.size <= base.sfs.size)
  }

  test("a coding tune costs the extra bytes per core of ingest it saves") {
    import StorageConfig.{Slot, fastestPerRate, tuneCost}
    import Profiler.SfProfile
    val slot = Slot(0, StorageFormat(Fidelity.full, Coding.slowestSmallest), fastestPerRate(Nil),
      bytes = 100.0, cores = 4.0)
    assert(tuneCost(slot, SfProfile(bytesPerSec = 130.0, ingestCores = 1.0)) === Some(10.0))
    assert(tuneCost(slot, SfProfile(bytesPerSec = 90.0, ingestCores = 3.5)) === Some(-20.0))
    // a tune that saves no ingest has no price
    assert(tuneCost(slot, SfProfile(bytesPerSec = 50.0, ingestCores = 4.0)) === None)
    assert(tuneCost(slot, SfProfile(bytesPerSec = 50.0, ingestCores = 5.0)) === None)
    // the price does not follow the slot's bytes-to-cores ratio: this slot's
    // ratio is 20x the first one's, and its tune is half the price
    val wide = slot.copy(bytes = 1000.0, cores = 2.0)
    assert(tuneCost(wide, SfProfile(1005.0, 1.0)) === Some(5.0))
  }

  test("nextCheaperCoding walks steps then RAW then stops") {
    var c: Option[Coding] = Some(Encoded(SpeedStep.Slowest, KeyframeInterval(250)))
    val seen = Vector.newBuilder[Coding]
    while (c.isDefined) { seen += c.get; c = StorageConfig.nextCheaperCoding(c.get) }
    val chain = seen.result()
    assert(chain.size === 6)
    assert(chain.last === Raw)
    assert(chain.init.map(costRank) === chain.init.map(costRank).sorted)
  }

  test("initialNodes has one SF per CF plus the golden") {
    val p = profiler()
    val triples = triplesFor(Seq(Consumer(OperatorModel.NN, 0.9), Consumer(OperatorModel.NN, 0.8)))
    val demands = StorageConfig.demands(triples)
    val nodes = StorageConfig.initialNodes(p, demands)
    assert(nodes.size === demands.size + 1)
    assert(nodes.count(_.cfs.isEmpty) === 1) // the golden node
  }

  test("subscription covers exactly the input CFs") {
    val subs = fullCfg.storage.subscription
    subs.values.foreach(sf => assert(fullCfg.sfs.contains(sf)))
  }
}
